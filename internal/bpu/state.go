package bpu

// State is the branch predictor's mutable state: perceptron weight
// tables, global history, the BTB arrays, and the return address stack.
// Geometry (table count/size, BTB shape, RAS depth) is configuration; a
// restore requires a BPU built from the same Config.
//
//ubs:state
type State struct {
	Weights    [][]int8 // [table][entry]
	Bias       []int8
	History    uint64
	BTBTags    [][]uint64 // [set][way], 0 = invalid
	BTBTargets [][]uint64
	BTBLRU     [][]uint32
	BTBClock   uint32
	RAS        []uint64
	RASTop     int
	Stats      Stats
}

// State returns the predictor's live state.
func (b *BPU) State() *State { return &b.st }
