package sim

import (
	"fmt"

	"ubscache/internal/bpu"
	"ubscache/internal/core"
	"ubscache/internal/fdip"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/snap"
	"ubscache/internal/trace"
)

// MachineState is a Machine's own mutable state and, through its
// pointers, every layer's: in a live machine each pointer addresses the
// state struct that layer runs on, so the value is the complete
// checkpointable image. Snapshot deep-copies it; checkpoint files are
// its snap encoding. The contract is byte-level — snapshot at
// instruction N, restore into a fresh Machine built from the same
// Params/design/workload, run to completion, and the final stats are
// byte-identical to an uninterrupted run.
//
// Two things are deliberately NOT part of the state:
//
//   - The trace source. Sources carry unserializable state (workload
//     RNGs, open file readers), so restore replays instead: the FTQ's
//     EnqueuedTot counts exactly the successful Next calls, and Restore
//     fast-forwards a freshly opened source by that many instructions
//     (trace.Skip).
//   - Observer plumbing (the heartbeat schedule). Heartbeats never touch
//     simulated state; Restore recomputes the next beat cycle from the
//     restored clock so a resumed run beats on the same cycle grid.
//
// The file-format version lives in the checkpoint header (package
// checkpoint), not here: MachineState's layout IS the format, and the
// header version is bumped whenever any //ubs:state struct changes.
//
//ubs:state
type MachineState struct {
	Warmed bool
	ICWarm icache.Stats
	BPWarm bpu.Stats
	// EffSamples is the storage-efficiency window: every EffStride-th
	// sample tick, bounded by effWindowCap (see recordEff).
	EffSamples []float64 `snap:"queue"`
	EffStride  uint64
	EffTick    uint64 // sample ticks taken so far
	NextSample uint64
	Core       *core.State
	FTQ        *fdip.State
	BPU        *bpu.State
	// Frontend holds the design's snap-encoded state struct. The bytes
	// are opaque here; only the same concrete frontend type decodes them
	// and checks their shape (icache.Checkpointable). The frontend keeps
	// its own state, so in a live machine this is empty: Snapshot fills
	// it in the copy, and Restore hands it to the frontend.
	Frontend  []byte              `snap:"opaque"`
	DataCache *mem.DataCacheState // nil without data-cache modelling
	Hierarchy *mem.HierarchyState
}

// Snapshot copies the machine's complete mutable state into dst. The
// machine must be warmed (checkpoints are taken mid-measurement; the
// warmup phase is cheap to replay and carries the warmup/measure stat
// baselines only once it completes). Snapshot never runs on the cycle
// hot path — callers invoke it between Advance calls — so it may
// allocate, though it reuses dst's backing storage across calls.
func (m *Machine) Snapshot(dst *MachineState) error {
	if !m.st.Warmed {
		return fmt.Errorf("sim: snapshot before warmup completed")
	}
	ck, ok := m.ic.(icache.Checkpointable)
	if !ok {
		return fmt.Errorf("sim: frontend %T is not checkpointable", m.ic)
	}
	fe, err := ck.SnapshotState()
	if err != nil {
		return err
	}
	if err := snap.Copy(dst, &m.st); err != nil {
		return err
	}
	dst.Frontend = fe
	return nil
}

// Restore installs a previously captured MachineState into a fresh
// Machine built from the same Params, design, and workload. Every
// layer's state is checked against the machine's geometry and only then
// copied into its pre-sized backing; the machine's trace source is
// fast-forwarded to the snapshot's replay cursor, and the observer (if
// any) is re-armed at the measure phase, so the next Advance continues
// exactly where the snapshot left off.
func (m *Machine) Restore(src *MachineState) error {
	if m.st.Warmed || m.c.Clock() != 0 {
		return fmt.Errorf("sim: restore target must be a fresh machine")
	}
	if !src.Warmed {
		return fmt.Errorf("sim: snapshot was taken before warmup completed")
	}
	ck, ok := m.ic.(icache.Checkpointable)
	if !ok {
		return fmt.Errorf("sim: frontend %T is not checkpointable", m.ic)
	}
	if err := snap.Restore(&m.st, src); err != nil {
		return err
	}
	// snap.Restore checks shapes only; indices into the restored buffers
	// must be checked here, before the machine runs on them. The core's
	// occupancy is derived from its ROB and clock, not checkpointed.
	m.c.Rebuild()
	if err := m.c.Validate(); err != nil {
		return err
	}
	if err := m.ftq.Validate(); err != nil {
		return err
	}
	if err := ck.RestoreState(src.Frontend); err != nil {
		return fmt.Errorf("sim: frontend %s: %w", m.design, err)
	}
	// Replay: position the fresh source on the instruction the FTQ would
	// pull next. EnqueuedTot counts exactly the successful Next calls; a
	// source that already ended (SourceDone) is restored via the flag
	// alone, so no extra Next is needed here.
	if err := trace.Skip(m.src, m.st.FTQ.EnqueuedTot); err != nil {
		return err
	}
	// Observer plumbing: re-enter the measure phase and recompute the
	// heartbeat schedule against the restored clock. Beats fire exactly
	// on multiples of the period, so the resumed run stays on the same
	// cycle grid as the uninterrupted one.
	m.hb.startPhase("measure", m.p.Measure, m.st.ICWarm, m.st.BPWarm)
	if m.hb != nil || m.cancellable {
		m.nextHB = (m.c.Stats().Cycles/m.every + 1) * m.every
	} else {
		m.nextHB = 0
	}
	return nil
}
