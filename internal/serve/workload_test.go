package serve

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"ubscache/internal/core"
	"ubscache/internal/exp"
	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// stubWorkloadStore fabricates simulations through the Sim seam, which
// sees every workload kind (mix, champsim, ...), not just
// generator-backed presets.
func stubWorkloadStore(calls *atomic.Int64) *runner.Store {
	s := runner.NewStore("")
	s.Sim = func(_ context.Context, pt exp.SimPoint) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{
			Workload: pt.Workload.Name,
			Design:   pt.Design,
			Core:     core.Stats{Cycles: 1000, Instructions: 1500},
		}, nil
	}
	return s
}

const mixJSON = `{
	"seed": 5,
	"clients": [
		{"preset": "server_001", "weight": 2, "arrival": {"process": "poisson"}},
		{"preset": "client_001"}
	]
}`

// TestDedupWorkloadSpec: two submissions of the same declarative mix —
// one via the shorthand grammar, one via workload_spec — land on one
// content key and one execution, exactly like preset jobs.
func TestDedupWorkloadSpec(t *testing.T) {
	var calls atomic.Int64
	s := New(testConfig(stubWorkloadStore(&calls), 2))
	defer s.Close()

	spec := &workloadspec.Spec{Kind: "mix", Config: []byte(mixJSON)}
	a := submitOK(t, s, SubmitRequest{Design: "ubs", WorkloadSpec: spec})
	b := submitOK(t, s, SubmitRequest{Design: "ubs", Workload: `{"kind":"mix","config":` + mixJSON + `}`})
	if a.Key() != b.Key() {
		t.Fatalf("identical mix specs got different keys %s vs %s", a.Key(), b.Key())
	}
	waitState(t, a, JobDone)
	waitState(t, b, JobDone)
	if got := calls.Load(); got != 1 {
		t.Fatalf("identical mix specs executed %d simulations, want 1", got)
	}
	_, ab, ok := a.Result()
	if !ok {
		t.Fatal("job a has no result")
	}
	_, bb, ok := b.Result()
	if !ok {
		t.Fatal("job b has no result")
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("deduped results differ:\n%s\nvs\n%s", ab, bb)
	}
}

// TestWorkloadShorthandKeysMatchPreset: the preset: prefix and the bare
// name are one job identity — and one cache entry with pre-registry runs.
func TestWorkloadShorthandKeysMatchPreset(t *testing.T) {
	var calls atomic.Int64
	s := New(testConfig(stubWorkloadStore(&calls), 2))
	defer s.Close()

	a := submitOK(t, s, SubmitRequest{Design: "ubs", Workload: "server_001"})
	b := submitOK(t, s, SubmitRequest{Design: "ubs", Workload: "preset:server_001"})
	if a.Key() != b.Key() {
		t.Fatalf("bare and preset: spellings got different keys %s vs %s", a.Key(), b.Key())
	}
	waitState(t, a, JobDone)
	waitState(t, b, JobDone)
	if got := calls.Load(); got != 1 {
		t.Fatalf("one preset spelled two ways executed %d simulations, want 1", got)
	}
}

// TestWorkloadSpecValidation pins the exactly-one-of contract.
func TestWorkloadSpecValidation(t *testing.T) {
	var calls atomic.Int64
	s := New(testConfig(stubWorkloadStore(&calls), 1))
	defer s.Close()

	spec := &workloadspec.Spec{Kind: "preset", Config: []byte(`{"name":"server_001"}`)}
	if _, err := s.Submit(SubmitRequest{Design: "ubs", Workload: "server_001", WorkloadSpec: spec}); err == nil {
		t.Error("workload and workload_spec together admitted, want error")
	}
	if _, err := s.Submit(SubmitRequest{Design: "ubs"}); err == nil {
		t.Error("submission with no workload admitted, want error")
	}
	if _, err := s.Submit(SubmitRequest{Design: "ubs", Workload: "mix:/no/such/file.yaml"}); err == nil {
		t.Error("unresolvable mix file admitted, want error")
	}
}
