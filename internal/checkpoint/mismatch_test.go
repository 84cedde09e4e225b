package checkpoint

import (
	"context"
	"path/filepath"
	"testing"
)

// TestGeometryMismatchRejected pins the restore-time shape checks: a
// checkpoint whose (CRC-valid) meta names a machine of a different shape
// than the one its state was captured from must fail Resume with an
// error — before the machine runs, and without panicking.
func TestGeometryMismatchRejected(t *testing.T) {
	states := map[string][]byte{}
	for _, design := range []string{"conv:32", "ubs", "ghrp", "acic"} {
		states[design] = midRunCheckpoint(t, testParams(), design)
	}
	for _, tc := range []struct {
		name, from string
		edit       func(*Meta)
	}{
		{"cache-sets", "conv:32", func(m *Meta) { m.Design = "conv:64" }},
		{"frontend-kind", "ubs", func(m *Meta) { m.Design = "conv:32" }},
		{"rob-size", "conv:32", func(m *Meta) { m.Params.Core.ROBSize = 256 }},
		{"replacement-policy", "ghrp", func(m *Meta) { m.Design = "conv:32" }},
		{"admission-filter", "acic", func(m *Meta) { m.Design = "conv:32" }},
		{"ubs-geometry", "ubs", func(m *Meta) { m.Design = "ubs:64" }},
		{"btb-size", "conv:32", func(m *Meta) { m.Params.BPU.BTBEntries = 2048 }},
		{"l2-sets", "conv:32", func(m *Meta) { m.Params.Hierarchy.L2Sets = 512 }},
		{"no-data-cache", "conv:32", func(m *Meta) { m.Params.DataCache = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			meta, st, err := Decode(states[tc.from])
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(&meta)
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
				r.Close()
				t.Fatalf("%s state resumed into a mismatched machine", tc.from)
			}
			t.Log(err)
		})
	}
}
