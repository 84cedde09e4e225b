package checkpoint

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ubscache/internal/sim"
)

// TestGeometryMismatchRejected pins the restore-time shape and index
// checks: a checkpoint whose (CRC-valid) meta names a machine of a
// different shape than the one its state was captured from, or whose
// state carries a buffer index out of range, must fail Resume with an
// error — before the machine runs, and without panicking.
func TestGeometryMismatchRejected(t *testing.T) {
	states := map[string][]byte{}
	for _, design := range []string{"conv:32", "ubs", "ghrp", "acic"} {
		states[design] = midRunCheckpoint(t, testParams(), design)
	}
	for _, tc := range []struct {
		name, from string
		edit       func(*Meta)
		editState  func(*sim.MachineState)
	}{
		{"cache-sets", "conv:32", func(m *Meta) { m.Design = "conv:64" }, nil},
		{"frontend-kind", "ubs", func(m *Meta) { m.Design = "conv:32" }, nil},
		{"rob-size", "conv:32", func(m *Meta) { m.Params.Core.ROBSize = 256 }, nil},
		{"replacement-policy", "ghrp", func(m *Meta) { m.Design = "conv:32" }, nil},
		{"admission-filter", "acic", func(m *Meta) { m.Design = "conv:32" }, nil},
		{"ubs-geometry", "ubs", func(m *Meta) { m.Design = "ubs:64" }, nil},
		{"btb-size", "conv:32", func(m *Meta) { m.Params.BPU.BTBEntries = 2048 }, nil},
		{"l2-sets", "conv:32", func(m *Meta) { m.Params.Hierarchy.L2Sets = 512 }, nil},
		{"no-data-cache", "conv:32", func(m *Meta) { m.Params.DataCache = false }, nil},
		{"rob-head", "conv:32", nil, func(st *sim.MachineState) {
			st.Core.ROBHead = len(st.Core.ROB)
			st.Core.ROBCount = max(st.Core.ROBCount, 1)
		}},
		{"decode-head", "conv:32", nil, func(st *sim.MachineState) {
			st.Core.DecodeHead = len(st.Core.Decode) + 1
		}},
		{"ftq-head", "conv:32", nil, func(st *sim.MachineState) {
			st.FTQ.Head = len(st.FTQ.Queue) + 1
		}},
		// A live ROB head completing 2^40 cycles out: resumed, the
		// machine would never retire another instruction.
		{"rob-done-far-future", "conv:32", nil, func(st *sim.MachineState) {
			st.Core.ROBCount = max(st.Core.ROBCount, 1)
			st.Core.ROB[st.Core.ROBHead].Done = st.Core.Clock + 1<<40
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta, st, err := Decode(states[tc.from])
			if err != nil {
				t.Fatal(err)
			}
			if tc.edit != nil {
				tc.edit(&meta)
			}
			if tc.editState != nil {
				tc.editState(st)
			}
			data, err := Encode(meta, st)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "mismatch.ubsc")
			if err := WriteFileAtomic(path, data); err != nil {
				t.Fatal(err)
			}
			r, err := Resume(context.Background(), path, ResumeOptions{})
			if err == nil {
				t.Fatalf("%s state resumed into a mismatched machine; running it %s", tc.from, runUnderDeadline(r))
			}
			t.Log(err)
		})
	}
}

// runUnderDeadline advances a machine that should not have resumed by
// one instruction, giving up after a few seconds: a state that stalls
// retirement spins inside Advance, and the test must fail, not hang. A
// machine still spinning is left to the test binary's exit.
func runUnderDeadline(r *Resumed) string {
	done := make(chan error, 1)
	go func() { done <- r.Machine.Advance(1) }()
	select {
	case err := <-done:
		r.Close()
		return fmt.Sprintf("returned %v", err)
	case <-time.After(5 * time.Second):
		return "hung (no instruction retired within 5s)"
	}
}
