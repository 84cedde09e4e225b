package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ubscache/internal/exp"
	"ubscache/internal/sim"
	"ubscache/internal/workload"
	"ubscache/internal/workloadspec"
)

const champSimFixture = "../trace/testdata/tiny.champsim"

func mixWorkload(t *testing.T, seed int64) workloadspec.Workload {
	t.Helper()
	cfg, err := json.Marshal(workloadspec.MixConfig{Seed: seed, Clients: []workloadspec.ClientSpec{
		{Preset: "server_001", Weight: 2, Arrival: workloadspec.ArrivalSpec{Process: workloadspec.ArrivalPoisson, Burst: 500}},
		{Preset: "client_001", Arrival: workloadspec.ArrivalSpec{Burst: 400}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadspec.ResolveWorkload(workloadspec.Spec{Kind: "mix", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkloadKeyLegacyEquality pins the cache-compatibility contract: a
// generator-backed workload keys exactly like the historical
// (params, config, design) hash — so disk caches written before the
// workload registry, and the "preset:x" vs bare "x" spellings, all dedup
// to one entry — while source-backed workloads get their own stable keys.
func TestWorkloadKeyLegacyEquality(t *testing.T) {
	pt := testPoint(t, workload.FamilyServer, 0) // an explicit config
	legacy := Key(pt)
	with := func(w workloadspec.Workload, design string) string {
		return Key(exp.SimPoint{Params: pt.Params, Workload: w, Design: design})
	}

	bare, err := workloadspec.ParseWorkload(pt.Workload.Name)
	if err != nil {
		t.Fatal(err)
	}
	prefixed, err := workloadspec.ParseWorkload("preset:" + pt.Workload.Name)
	if err != nil {
		t.Fatal(err)
	}
	if k := with(bare, "ubs"); k != legacy {
		t.Errorf("bare preset key %s != legacy key %s", k, legacy)
	}
	if k := with(prefixed, "ubs"); k != legacy {
		t.Errorf("preset: key %s != legacy key %s", k, legacy)
	}

	mix := mixWorkload(t, 7)
	mk := with(mix, "ubs")
	if mk == legacy {
		t.Error("mix workload collides with the preset key")
	}
	if mk != with(mixWorkload(t, 7), "ubs") {
		t.Error("same mix spec, different keys")
	}
	if mk == with(mixWorkload(t, 8), "ubs") {
		t.Error("different mix seed, same key")
	}
	if mk == with(mix, "conv-32KB") {
		t.Error("different design, same key")
	}
}

// TestStoreWorkloadDedup: spec-backed workloads flow through the same
// memoizing store as presets — identical specs simulate once, distinct
// specs separately — via the Sim seam, which sees every kind.
func TestStoreWorkloadDedup(t *testing.T) {
	var calls atomic.Int64
	s := NewStore("")
	s.Sim = func(_ context.Context, pt exp.SimPoint) (sim.Result, error) {
		calls.Add(1)
		return sim.Result{Workload: pt.Workload.Name, Design: pt.Design}, nil
	}
	pt := testPoint(t, workload.FamilyServer, 0)

	pt.Workload = mixWorkload(t, 7)
	for i := 0; i < 3; i++ {
		if _, err := runPoint(s, pt); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("3 identical mix requests ran %d simulations, want 1", calls.Load())
	}
	pt.Workload = mixWorkload(t, 8)
	if _, err := runPoint(s, pt); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("distinct mix seed did not run separately (%d calls)", calls.Load())
	}
}

// workloadSweepSpec crosses 2 designs × 2 workload specs (one inline
// mix, one ChampSim fixture) — the acceptance-criterion sweep shape.
func workloadSweepSpec(t *testing.T) Spec {
	t.Helper()
	mixSpec, err := workloadspec.ParseWorkloadSpec(`{"kind":"mix","config":{
		"seed": 11,
		"clients": [
			{"preset": "server_001", "weight": 2, "arrival": {"process": "poisson", "burst": 2000}},
			{"preset": "client_001", "arrival": {"process": "gamma", "cv": 3, "burst": 1500}}
		]}}`)
	if err != nil {
		t.Fatal(err)
	}
	csSpec, err := workloadspec.ParseWorkloadSpec("champsim:" + champSimFixture)
	if err != nil {
		t.Fatal(err)
	}
	ubs, err := sim.ParseDesignSpec("ubs")
	if err != nil {
		t.Fatal(err)
	}
	conv, err := sim.ParseDesignSpec("conv:64")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Designs:     []sim.DesignSpec{ubs, conv},
		Workloads:   []workloadspec.Spec{mixSpec, csSpec},
		Parallel:    4,
		Params:      ParamSpec{Warmup: 10_000, Measure: 30_000},
		OmitTimings: true,
	}
}

// TestSweepWorkloadsByteIdentical is the acceptance criterion: a sweep
// crossing designs × workload specs produces per-workload rows in
// results.json, and two fresh runs of the same spec (no shared store)
// produce byte-identical files.
func TestSweepWorkloadsByteIdentical(t *testing.T) {
	run := func(dir string) []byte {
		t.Helper()
		resultsPath := filepath.Join(dir, "results.json")
		sw := &Sweep{
			Spec:        workloadSweepSpec(t),
			Store:       NewStore(""),
			ResultsPath: resultsPath,
		}
		if _, err := sw.Run(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(resultsPath)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a := run(t.TempDir())
	b := run(t.TempDir())
	if string(a) != string(b) {
		t.Fatalf("two fresh runs of the same workload sweep differ:\n--- a\n%s\n--- b\n%s", a, b)
	}

	var rf ResultsFile
	if err := json.Unmarshal(a, &rf); err != nil {
		t.Fatal(err)
	}
	// 2 designs × 2 workloads, plus each workload's conv-32KB baseline.
	if len(rf.Runs) != 6 {
		t.Fatalf("expected 6 runs (2 workloads × {baseline, ubs, conv-64KB}), got %d", len(rf.Runs))
	}
	byWorkload := map[string]int{}
	for _, r := range rf.Runs {
		byWorkload[r.Workload]++
		if r.IPC <= 0 || r.Cycles == 0 {
			t.Errorf("run %s/%s has empty counters", r.Workload, r.Design)
		}
		if r.Seconds != 0 || r.FromCache {
			t.Errorf("run %s/%s leaks timing/provenance despite omit_timings", r.Workload, r.Design)
		}
	}
	if len(byWorkload) != 2 {
		t.Fatalf("expected rows for 2 workloads, got %v", byWorkload)
	}
	if n := byWorkload["tiny"]; n != 3 {
		t.Errorf("champsim fixture rows = %d, want 3 (%v)", n, byWorkload)
	}
	if rf.WallSeconds != 0 {
		t.Error("wall_seconds leaks despite omit_timings")
	}
}

// TestSweepWorkloadsValidation: workloads without designs are rejected at
// spec validation, not deep inside planning.
func TestSweepWorkloadsValidation(t *testing.T) {
	ws, err := workloadspec.ParseWorkloadSpec("server_001")
	if err != nil {
		t.Fatal(err)
	}
	s := Spec{Workloads: []workloadspec.Spec{ws}}
	if err := s.Validate(); err == nil {
		t.Error("workloads without designs validated, want error")
	}
}

// TestKeyPinned pins Key to fixed hex values for one point of every
// workload spelling. Disk caches, checkpoint file names, ubsd job keys
// and results.json run keys are all Key values, so a change that
// re-hashes any of these spellings must fail here, not silently orphan
// every existing cache entry.
func TestKeyPinned(t *testing.T) {
	base := testPoint(t, workload.FamilySPEC, 0)
	for _, tc := range []struct {
		workload string // "" keeps testPoint's explicit spec_001 config
		want     string
	}{
		{"server_003", "790347c9229b1dcaa3214a9db7dbc74d"},
		{"preset:server_003", "790347c9229b1dcaa3214a9db7dbc74d"},
		{"", "37ecd80773ec80e9574a5109d6a1369d"},
		// The mix spec inlines the file, so the key covers its clients and
		// seed, not the path: the repo-root spelling
		// mix:examples/specs/clients.yaml keys the same.
		{`{"kind":"mix","config":{"path":"../../examples/specs/clients.yaml","seed":42}}`, "fd466d1fcf5f33dc0fbd4dabb3340398"},
		// The champsim spec keeps its path verbatim; resolving it does not
		// open the file, so the repo-root spelling works from here.
		{"champsim:internal/trace/testdata/tiny.champsim", "3786059657c1408110056e23cab8541c"},
	} {
		pt := base
		if tc.workload != "" {
			w, err := workloadspec.ParseWorkload(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			pt.Workload = w
		}
		if got := Key(pt); got != tc.want {
			t.Errorf("Key(%s) = %s, want %s", pt.Workload.Name, got, tc.want)
		}
	}
}
