package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ubscache/internal/core"
	"ubscache/internal/exp"
	"ubscache/internal/sim"
	"ubscache/internal/workload"
	"ubscache/internal/workloadspec"
)

// testPoint is a short "ubs" point on the idx-th preset of family.
func testPoint(t *testing.T, family workload.Family, idx int) exp.SimPoint {
	t.Helper()
	p := sim.DefaultParams()
	p.Warmup = 10_000
	p.Measure = 20_000
	wcfg, err := workload.Preset(family, idx)
	if err != nil {
		t.Fatal(err)
	}
	return exp.SimPoint{Params: p, Workload: workloadspec.FromConfig(wcfg), Design: "ubs"}
}

// runPoint is s.Run without a deadline, ignoring the shared flag.
func runPoint(s *Store, pt exp.SimPoint) (sim.Result, error) {
	res, _, err := s.Run(context.Background(), pt)
	return res, err
}

// stubSim returns a Sim hook that counts invocations and fabricates a
// deterministic result after an optional delay.
func stubSim(calls *atomic.Int64, delay time.Duration) func(context.Context, exp.SimPoint) (sim.Result, error) {
	return func(_ context.Context, pt exp.SimPoint) (sim.Result, error) {
		calls.Add(1)
		time.Sleep(delay)
		return sim.Result{
			Workload: pt.Workload.Name,
			Design:   pt.Design,
			Core:     core.Stats{Cycles: 1000, Instructions: 1500},
		}, nil
	}
}

// TestStoreSingleflight is the concurrent-memoization guarantee: N
// goroutines requesting the same (params, workload, design) key must
// trigger exactly one simulation, via in-flight tracking rather than a
// post-hoc cache.
func TestStoreSingleflight(t *testing.T) {
	var calls atomic.Int64
	s := NewStore("")
	// The delay keeps the first simulation in flight while every other
	// goroutine arrives, so a cache-check-then-run race would overcount.
	s.Sim = stubSim(&calls, 50*time.Millisecond)
	pt := testPoint(t, workload.FamilyServer, 0)

	const n = 32
	var wg sync.WaitGroup
	results := make([]sim.Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runPoint(s, pt)
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent requests ran %d simulations, want 1", n, got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Core.Cycles != 1000 || results[i].Workload != pt.Workload.Name {
			t.Fatalf("request %d got %+v", i, results[i])
		}
	}
}

func TestStoreDistinctKeysRunSeparately(t *testing.T) {
	var calls atomic.Int64
	s := NewStore("")
	s.Sim = stubSim(&calls, 0)
	pt := testPoint(t, workload.FamilyServer, 0)
	otherDesign := pt
	otherDesign.Design = "conv-32KB"
	otherWorkload := testPoint(t, workload.FamilyServer, 1)
	otherParams := pt
	otherParams.Params.Measure = 30_000

	for _, c := range []exp.SimPoint{pt, otherDesign, otherWorkload, otherParams} {
		if _, err := runPoint(s, c); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("4 distinct points ran %d simulations", got)
	}
	// Re-running any of them hits the memo.
	if _, err := runPoint(s, pt); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("memoized rerun triggered a simulation (%d calls)", got)
	}
}

func TestKeyStability(t *testing.T) {
	pt := testPoint(t, workload.FamilyServer, 0)
	k1 := Key(pt)
	k2 := Key(testPoint(t, workload.FamilyServer, 0))
	if k1 != k2 {
		t.Fatalf("same inputs, different keys: %s vs %s", k1, k2)
	}
	otherDesign := pt
	otherDesign.Design = "conv-32KB"
	if k := Key(otherDesign); k == k1 {
		t.Fatal("different design, same key")
	}
	otherParams := pt
	otherParams.Params.Warmup++
	if k := Key(otherParams); k == k1 {
		t.Fatal("different params, same key")
	}
}

// TestStoreDiskCache checks persistence: a second store sharing the cache
// dir serves the result without simulating, so interrupted sweeps resume.
func TestStoreDiskCache(t *testing.T) {
	dir := t.TempDir()
	pt := testPoint(t, workload.FamilyServer, 0)

	var calls1 atomic.Int64
	s1 := NewStore(dir)
	s1.Sim = stubSim(&calls1, 0)
	res1, err := runPoint(s1, pt)
	if err != nil {
		t.Fatal(err)
	}
	if calls1.Load() != 1 {
		t.Fatalf("first store ran %d simulations", calls1.Load())
	}

	var calls2 atomic.Int64
	s2 := NewStore(dir)
	s2.Sim = stubSim(&calls2, 0)
	res2, shared, err := s2.Run(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Fatalf("second store ran %d simulations despite the disk cache", calls2.Load())
	}
	if !shared {
		t.Error("disk hit not reported as shared")
	}
	if res1.Core != res2.Core || res1.Workload != res2.Workload || res1.Design != res2.Design {
		t.Fatalf("disk round-trip changed the result: %+v vs %+v", res1, res2)
	}
	if !s2.Meta(Key(pt)).Disk {
		t.Error("disk hit not recorded in meta")
	}
}

// TestStorePanicIsolation: a panicking simulation surfaces as an error
// (for every waiter) and is retried on the next request.
func TestStorePanicIsolation(t *testing.T) {
	var calls atomic.Int64
	s := NewStore("")
	s.Sim = func(_ context.Context, pt exp.SimPoint) (sim.Result, error) {
		if calls.Add(1) == 1 {
			panic("synthetic failure")
		}
		return sim.Result{Workload: pt.Workload.Name, Design: pt.Design}, nil
	}
	pt := testPoint(t, workload.FamilyServer, 0)
	if _, err := runPoint(s, pt); err == nil {
		t.Fatal("panic did not surface as an error")
	}
	// Errors are not cached: the retry succeeds.
	if _, err := runPoint(s, pt); err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("expected 2 simulation attempts, got %d", calls.Load())
	}
}

func TestStoreErrorNotCached(t *testing.T) {
	var calls atomic.Int64
	s := NewStore("")
	s.Sim = func(context.Context, exp.SimPoint) (sim.Result, error) {
		if calls.Add(1) == 1 {
			return sim.Result{}, fmt.Errorf("transient")
		}
		return sim.Result{Workload: "w", Design: "d"}, nil
	}
	pt := testPoint(t, workload.FamilyServer, 0)
	if _, err := runPoint(s, pt); err == nil {
		t.Fatal("error swallowed")
	}
	if _, err := runPoint(s, pt); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
}
