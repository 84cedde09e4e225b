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

// InflightEntry is one dispatched-but-incomplete instruction in the
// completion heap: its completion cycle plus the queue resources it holds.
type InflightEntry struct {
	Done    uint64
	IsLoad  bool
	IsStore bool
}

// Inflight maintains the scheduler/LQ/SQ occupancy incrementally: counters
// rise at dispatch and fall when the clock passes each instruction's
// completion cycle. A fixed-capacity min-heap on completion time (capacity
// ROBSize, sized at construction — the same shape as the memory system's
// MSHR file) orders the expiries, replacing the per-cycle O(ROB) occupancy
// scan the dispatch stage previously performed. The counters are, by
// construction, exactly |{e in ROB : e.Done > now}| split by class: entries
// enter at dispatch (Done is always > now then) and commit only removes
// entries whose completion already expired here.
type Inflight struct {
	Heap   []InflightEntry `snap:"queue"`
	Sched  int
	Loads  int
	Stores int
}

// State is the core backend's mutable state and its front-end redirect
// machinery. The clock is the machine's monotonic time base — every
// completion cycle in every layer is an absolute cycle number against
// it — so it is part of the state, not of the stats.
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
	// Busy tracks scheduler/LQ/SQ occupancy incrementally (see Inflight).
	Busy     Inflight
	Seq      uint64
	DoneRing [512]uint64 // completion cycles by sequence number

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
