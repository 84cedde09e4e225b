package icache

import (
	"ubscache/internal/cache"
	"ubscache/internal/mem"
	"ubscache/internal/snap"
)

// Checkpointable is implemented by frontends that can serialize their
// mutable state. The bytes are opaque to callers: each frontend
// snap-encodes its own exported state struct, and only the same
// concrete frontend type (built from the same design config) can decode
// them. sim.Machine stores the bytes in MachineState.Frontend.
type Checkpointable interface {
	SnapshotState() ([]byte, error)
	RestoreState(data []byte) error
}

// EngineState is the shared fetch-engine substrate every frontend
// embeds: the L1-I MSHR file and the fetch counters.
//
//ubs:state
type EngineState struct {
	MSHR  *mem.MSHRState
	Stats Stats
}

// State returns the engine's live state.
func (e *Engine) State() *EngineState { return &e.st }

// ACICState is the ACIC admission filter (see newACIC): 2-bit admission
// counters and the FIFO bypass buffer.
type ACICState struct {
	Table  []uint8
	Bypass []uint64 `snap:"queue"`
	Pos    int
}

// ConventionalState is the conventional frontend's state: engine, cache
// array, and (when the design enables it) the ACIC admission filter.
//
//ubs:state
type ConventionalState struct {
	Engine *EngineState
	Cache  *cache.State
	ACIC   *ACICState
}

// SnapshotState implements Checkpointable.
func (cv *Conventional) SnapshotState() ([]byte, error) { return snap.Marshal(&cv.st) }

// RestoreState implements Checkpointable.
func (cv *Conventional) RestoreState(data []byte) error { return snap.RestoreBytes(&cv.st, data) }

// FillBufferState is the small-block fill buffer: recently fetched 64B
// block addresses, FIFO. Its capacity is SmallBlockConfig.BufferCap.
type FillBufferState struct {
	Blocks []uint64 `snap:"queue"`
	Pos    int
}

// SmallBlockState is the small-block frontend's state: engine, cache
// array, and the 64B fill buffer that batches sub-block fills.
//
//ubs:state
type SmallBlockState struct {
	Engine *EngineState
	Cache  *cache.State
	Buffer FillBufferState
}

// SnapshotState implements Checkpointable.
func (sb *SmallBlock) SnapshotState() ([]byte, error) { return snap.Marshal(&sb.st) }

// RestoreState implements Checkpointable.
func (sb *SmallBlock) RestoreState(data []byte) error { return snap.RestoreBytes(&sb.st, data) }

// WOCEntry is one 8B word of the word-organised cache, tagged by its
// word-aligned address.
type WOCEntry struct {
	Valid bool
	Addr  uint64 // 8B-aligned
	LRU   uint64
	Used  bool
}

// WOCState is the word-organised half of Line Distillation: Sets *
// WOCWords entries, set-major, and its LRU clock.
type WOCState struct {
	Entries []WOCEntry
	Clock   uint64
}

// DistillState is the Line Distillation frontend's state: engine, the
// line-organised cache, and the word-organised cache.
//
//ubs:state
type DistillState struct {
	Engine *EngineState
	LOC    *cache.State
	WOC    WOCState
	// WOCHits counts fetches served from the word-organised half.
	WOCHits uint64
}

// SnapshotState implements Checkpointable.
func (d *Distill) SnapshotState() ([]byte, error) { return snap.Marshal(&d.st) }

// RestoreState implements Checkpointable.
func (d *Distill) RestoreState(data []byte) error { return snap.RestoreBytes(&d.st, data) }
