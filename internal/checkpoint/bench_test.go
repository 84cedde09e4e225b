package checkpoint

import (
	"context"
	"testing"

	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// smokeCheckpoint reproduces the CI checkpoint smoke's kept file:
// server_001 on ubs, 20,000 warmup and 60,000 measured instructions,
// checkpointing every 20,000, keeping the last mid-run checkpoint (at
// 40,002 instructions).
func smokeCheckpoint(b *testing.B) []byte {
	b.Helper()
	p := sim.DefaultParams()
	p.Warmup, p.Measure = 20_000, 60_000
	w, err := workloadspec.ParseWorkload("server_001")
	if err != nil {
		b.Fatal(err)
	}
	d, err := sim.ParseDesign("ubs")
	if err != nil {
		b.Fatal(err)
	}
	src, err := w.NewSource()
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewMachine(context.Background(), p, src, w.Name, d.Name, d.Factory)
	if err != nil {
		b.Fatal(err)
	}
	meta := Meta{Workload: w.Spec, WorkloadName: w.Name, Design: "ubs", Params: p}
	var last []byte
	if _, err := Complete(m, meta, 20_000, func(data []byte) error {
		last = data
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	return last
}

// BenchmarkCheckpointEncode encodes the CI smoke state; MB/s counts
// checkpoint-file bytes.
func BenchmarkCheckpointEncode(b *testing.B) {
	meta, st, err := Decode(smokeCheckpoint(b))
	if err != nil {
		b.Fatal(err)
	}
	data, err := Encode(meta, st)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(meta, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointDecode decodes the CI smoke checkpoint file into a
// fresh MachineState; MB/s counts checkpoint-file bytes.
func BenchmarkCheckpointDecode(b *testing.B) {
	data := smokeCheckpoint(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
