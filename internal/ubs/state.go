package ubs

import (
	"ubscache/internal/icache"
	"ubscache/internal/snap"
)

// WayEntry is one uneven way of one set: a tagged sub-block of a
// 64B-aligned block, described by its start_offset (in granules) with its
// size implied by the way (§IV-C).
type WayEntry struct {
	Valid  bool
	Tag    uint64 // 64B block address
	Start  int    // first stored granule within the block
	Stored int    // granules actually stored (≤ way capacity; clipped at block end)
	// Accessed marks stored granules that have been fetched; bits are
	// positioned absolutely within the 64B block for simplicity.
	Accessed uint64
	LRU      uint64
	Insert   uint64
	// Reused and Sig feed the §VI-H congruence extensions.
	Reused bool
	Sig    uint32
}

// PredEntry is one useful-byte predictor entry: a full 64B block and
// its bit-vectors.
type PredEntry struct {
	Valid bool
	// Prefetched marks entries filled by FDIP that have not yet seen a
	// demand fetch; their locality is unknown rather than observed-cold.
	Prefetched bool
	Tag        uint64 // 64B block address
	Mask       uint64 // accessed granules
	// PrefMask marks granules predicted useful by FDIP fetch ranges (§IV-A
	// start+size requests). They guide distillation when the block is
	// evicted before its first demand fetch, but do not count as accessed.
	PrefMask uint64
	Order    uint64 // LRU or FIFO timestamp
	Insert   uint64 // fill cycle
}

// PredictorState is the useful-byte predictor: PredictorSets *
// PredictorWays entries, set-major, and its recency clock.
type PredictorState struct {
	Entries []PredEntry
	Clock   uint64
}

// DeadState is the §VI-H dead-block predictor (see congruence.go).
type DeadState struct {
	Tables  [][]uint8
	History uint32
}

// AdmitState is the §VI-H admission filter table (see congruence.go).
type AdmitState struct {
	Table []uint8
}

// State is the UBS cache's mutable state: the uneven-block directory
// (Sets * len(WaySizes) ways, set-major), the useful-byte predictor, the
// LRU clock, the UBS-specific counters, and — when the congruence
// extensions are enabled — the dead-block predictor and admission filter
// (nil otherwise; a restore must agree with the design on their
// presence).
//
//ubs:state
type State struct {
	Engine *icache.EngineState
	Ways   []WayEntry
	Clock  uint64
	Stats  Stats
	Pred   PredictorState
	Dead   *DeadState
	Admit  *AdmitState
}

// SnapshotState implements icache.Checkpointable.
func (u *Cache) SnapshotState() ([]byte, error) { return snap.Marshal(&u.st) }

// RestoreState implements icache.Checkpointable.
func (u *Cache) RestoreState(data []byte) error { return snap.RestoreBytes(&u.st, data) }
