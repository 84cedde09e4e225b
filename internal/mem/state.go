package mem

import "ubscache/internal/cache"

// MSHREntry is one outstanding miss.
type MSHREntry struct {
	Done  uint64 // completion cycle
	Block uint64 // block address
}

// MSHRState is an MSHR file's mutable state: the live entries in heap
// order plus the counters. Capacity is configuration, not state; the
// Entries backing array is allocated once at that capacity.
//
//ubs:state
type MSHRState struct {
	// Entries is a binary min-heap on Done.
	Entries []MSHREntry `snap:"queue"`
	// Stats. FullStall counts aborted demand allocations — one per
	// caller-observed retry (see RecordFullStall); Full itself is a pure
	// query and counts nothing.
	Merges    uint64
	Allocs    uint64
	FullStall uint64
}

// DRAMState is the DRAM model's open-row and bank-busy books plus its
// counters; the bank count is configuration.
//
//ubs:state
type DRAMState struct {
	Rows      []uint64 // open row per bank (+1; 0 = closed)
	Busy      []uint64 // cycle at which the bank becomes free
	Accesses  uint64
	RowHits   uint64
	RowMisses uint64
}

// LevelState points at one shared level's cache array and MSHR file.
type LevelState struct {
	Cache *cache.State
	MSHR  *MSHRState
}

// HierarchyState points at the state of the shared L2 → L3 → DRAM path.
//
//ubs:state
type HierarchyState struct {
	L2   LevelState
	L3   LevelState
	DRAM *DRAMState
}

// DataCacheState points at the L1-D array and its MSHR file (which the
// data cache shares with its fetch engine, so one copy covers both).
//
//ubs:state
type DataCacheState struct {
	Cache *cache.State
	MSHR  *MSHRState
}

// State returns the MSHR file's live state.
func (m *MSHR) State() *MSHRState { return &m.MSHRState }

// State returns the DRAM model's live state.
func (d *DRAM) State() *DRAMState { return &d.DRAMState }

// state points at the level's live state.
func (l *Level) state() LevelState {
	return LevelState{Cache: l.Cache.State(), MSHR: l.MSHR.State()}
}

// State returns the hierarchy's live state.
func (h *Hierarchy) State() *HierarchyState { return &h.st }

// State returns the data cache's live state.
func (d *DataCache) State() *DataCacheState { return &d.st }
