package core

import "ubscache/internal/fdip"

// ROBEntry is one in-flight instruction.
type ROBEntry struct {
	Done       uint64
	Seq        uint64
	IsLoad     bool
	IsStore    bool
	Mispredict bool
}

// DecodeItem is an instruction between fetch and dispatch.
type DecodeItem struct {
	Item    fdip.Item
	ReadyAt uint64
}

// State is the core backend's mutable state and its front-end redirect
// machinery. The clock is the machine's monotonic time base — every
// completion cycle in every layer is an absolute cycle number against
// it — so it is part of the state, not of the stats. Scheduler/LQ/SQ
// occupancy is not: it is a function of the ROB and the clock, which
// Core.Rebuild recomputes after a restore.
//
//ubs:state
type State struct {
	// ROB is a ring of ROBSize entries; ROBHead and ROBCount index it.
	ROB      []ROBEntry
	ROBHead  int
	ROBCount int
	// Decode is a head-indexed FIFO: Decode[DecodeHead:] is live.
	// Draining by advancing the head (not re-slicing) keeps the backing
	// array reusable, so steady state performs no allocations.
	Decode     []DecodeItem `snap:"queue"`
	DecodeHead int
	Seq        uint64
	DoneRing   [512]uint64 // completion cycles by sequence number

	// Front-end redirect state.
	WaitMispredict bool
	RedirectAt     uint64      // 0 = resolution cycle unknown yet
	FetchBlocked   uint64      // fetch stalls until this cycle
	BlockReason    StallReason // why fetch is blocked until FetchBlocked

	// Clock is the monotonic cycle counter. It is never reset;
	// Stats.Cycles counts only the cycles since the last ResetStats.
	Clock uint64
	Stats Stats
}

// State returns the core's live state.
func (c *Core) State() *State { return &c.st }
