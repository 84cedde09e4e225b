package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// sweepDesigns × sweepWorkloads is the sweep-mixed cold pass: every
// frontend kind over the mix interleaver, a server preset and the
// ChampSim decoder.
var sweepDesigns = []string{"ubs", "conv32", "conv64", "smallblock32", "distill"}

// sweepParams are the run lengths of a sweep-mixed point; probeParams
// those of the short runs that probe the runner and serve layers from
// the other workloads.
var (
	sweepParams = runner.ParamSpec{Warmup: 50_000, Measure: 200_000}
	probeParams = runner.ParamSpec{Warmup: 50_000, Measure: 150_000}
)

// sweepSpec resolves the sweep-mixed spec; the mix seed comes from the
// benchmark seed.
func sweepSpec(b *bench) (runner.Spec, error) {
	spec := runner.Spec{Parallel: b.workers, Params: sweepParams}
	for _, d := range sweepDesigns {
		ds, err := sim.ParseDesignSpec(d)
		if err != nil {
			return spec, err
		}
		spec.Designs = append(spec.Designs, ds)
	}
	mix, err := mixSpec(b.seed)
	if err != nil {
		return spec, err
	}
	spec.Workloads = append(spec.Workloads, mix)
	for _, w := range []string{"server_005", champsimSpec} {
		ws, err := workloadspec.ParseWorkloadSpec(w)
		if err != nil {
			return spec, err
		}
		spec.Workloads = append(spec.Workloads, ws)
	}
	return spec, nil
}

// pass is one cold sweep into a fresh store directory followed by a warm
// sweep over the same directory.
type pass struct {
	setup      time.Duration // CPU time of its thread to resolve, validate and plan the spec
	cold, warm time.Duration // wall time of each sweep, on the benchmark's clock
	coldCPU    time.Duration // CPU time of the cold sweep, all workers
	points     int
	instrs     float64 // warmup plus measure, summed over the cold points
	summed     float64 // per-point simulation seconds summed across workers
	hits       int     // warm-pass points served from the store
	results    map[string][]byte
	counted    bool // every point retired the requested instructions
	warmSame   bool // the warm pass returned the cold pass's results
}

// planned resolves, validates and plans a spec, the set-up of a sweep,
// and takes the CPU time of its thread.
func planned(resolve func() (runner.Spec, error)) (runner.Spec, time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	spec, err := resolve()
	if err == nil {
		err = spec.Validate()
	}
	if err == nil {
		_, err = spec.Plan()
	}
	return spec, threadCPUTime() - c0, err
}

// sweepPass runs one pass of the spec that resolve builds.
func sweepPass(b *bench, resolve func() (runner.Spec, error)) (*pass, error) {
	dir, err := os.MkdirTemp(b.tmp, "sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec, setup, err := planned(resolve)
	if err != nil {
		return nil, err
	}
	p := &pass{setup: setup, results: map[string][]byte{}, counted: true, warmSame: true}

	sweep := func() (*runner.Outcome, *runner.Store, time.Duration, time.Duration, error) {
		store := runner.NewStore(dir)
		store.CheckpointEvery = spec.Params.Measure / 2
		t0, c0 := time.Now(), cpuTime()
		out, err := (&runner.Sweep{Spec: spec, Store: store}).Run()
		return out, store, time.Since(t0), cpuTime() - c0, err
	}
	cold, store, wall, cpu, err := sweep()
	if err != nil {
		return nil, err
	}
	p.cold, p.coldCPU, p.points = wall, cpu, len(cold.Results.Runs)
	for _, rec := range cold.Results.Runs {
		res, ok := store.Result(rec.Key)
		b.op(ok)
		p.counted = p.counted && retired(rec.Instructions, spec.Params.Measure)
		p.instrs += float64(rec.Warmup + rec.Instructions)
		p.summed += rec.Seconds
		if p.results[rec.Key], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	warm, store, wall, _, err := sweep()
	if err != nil {
		return nil, err
	}
	p.warm = wall
	for _, rec := range warm.Results.Runs {
		res, ok := store.Result(rec.Key)
		b.op(ok)
		if rec.FromCache {
			p.hits++
		}
		js, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		p.warmSame = p.warmSame && bytes.Equal(js, p.results[rec.Key])
	}
	p.warmSame = p.warmSame && len(warm.Results.Runs) == p.points
	return p, nil
}

// checkPass records the output checks of one pass.
func checkPass(b *bench, p *pass) {
	b.check("sweep points retire the requested instructions", p.counted, fmt.Sprintf("%d points", p.points))
	b.check("warm-pass results equal cold-pass results", p.warmSame, fmt.Sprintf("%d points", p.points))
	b.check("warm pass is served from the store", p.hits == p.points, fmt.Sprintf("%d of %d from cache", p.hits, p.points))
}

// runnerLayer runs one pass of spec and records the runner's per-layer
// metrics.
func runnerLayer(b *bench, spec runner.Spec) (*pass, error) {
	p, err := sweepPass(b, func() (runner.Spec, error) { return spec, nil })
	if err != nil {
		return nil, err
	}
	checkPass(b, p)
	workers := float64(spec.Workers())
	b.put("runner.points", float64(p.points), "deduplicated points of the cold pass")
	b.put("runner.summed_sim_s", p.summed, "per-point seconds SUMMED across workers, not wall time")
	b.put("runner.parallel_eff", p.summed/(p.cold.Seconds()*workers), fmt.Sprintf("summed / (cold wall %.3fs × %d workers)", p.cold.Seconds(), int(workers)))
	b.put("runner.cache_hit_frac", ratio(float64(p.hits), float64(p.points)), "warm pass")
	b.put("runner.cache_load_ms", p.warm.Seconds()*1e3/float64(p.points), "warm-pass wall time per point")
	return p, nil
}

// sweepMixed measures in-process sweeps at parallel = nproc: cold passes
// into a fresh store with checkpointing on, each followed by a warm pass.
func sweepMixed(b *bench) error {
	resolve := func() (runner.Spec, error) { return sweepSpec(b) }
	if b.traced {
		return sweepTraced(b, resolve)
	}
	var passes []*pass
	var setups, cpuNS, wallPerPoint []float64
	start := time.Now()
	for len(passes) < 2 || time.Since(start) < b.budget {
		runtime.GC() // every pass starts from a collected heap
		p, err := sweepPass(b, resolve)
		if err != nil {
			return err
		}
		checkPass(b, p)
		passes = append(passes, p)
		setups = append(setups, p.setup.Seconds())
		cpuNS = append(cpuNS, float64(p.coldCPU.Nanoseconds())/p.instrs)
		wallPerPoint = append(wallPerPoint, p.cold.Seconds()/float64(p.points))
	}
	same := true
	for _, p := range passes[1:] {
		for k, js := range passes[0].results {
			same = same && bytes.Equal(js, p.results[k])
		}
		same = same && len(p.results) == len(passes[0].results)
	}
	b.check("repeated passes give identical results", same, fmt.Sprintf("%d passes", len(passes)))
	setup, nSetups, err := setupMedian(setups, func() (time.Duration, error) {
		runtime.GC()
		_, d, err := planned(resolve)
		return d, err
	})
	if err != nil {
		return err
	}
	b.printf("sweep_s_per_point %.4f s: cold-pass wall time / %d points on the benchmark's clock, median of %d passes\n",
		median(wallPerPoint), passes[0].points, len(passes))
	b.put("setup_s", setup, fmt.Sprintf("CPU time of its thread to resolve the workloads and designs, Validate, Plan; median of %d", nSetups))
	b.put("sim_ns_per_instr", median(cpuNS), fmt.Sprintf("cold-pass CPU time of all %d workers / instructions of all points, median of %d passes", b.workers, len(passes)))
	return nil
}

// sweepTraced gives the per-layer breakdown of sweep-mixed: one pass for
// the runner, a traced run of the mix on UBS for the simulator layers,
// and a short serve probe over the sweep's workloads.
func sweepTraced(b *bench, resolve func() (runner.Spec, error)) error {
	spec, err := resolve()
	if err != nil {
		return err
	}
	if _, err := runnerLayer(b, spec); err != nil {
		return err
	}
	mix := spec.Workloads[0]
	pt := point{label: "mix/ubs", params: sim.DefaultParams(),
		resolve: func() (workloadspec.Workload, sim.Design, error) {
			wl, err := workloadspec.ResolveWorkload(mix)
			if err != nil {
				return wl, sim.Design{}, err
			}
			d, err := sim.ParseDesign("ubs")
			return wl, d, err
		}}
	if err := layerBreakdown(b, pt); err != nil {
		return err
	}
	if err := sourceProbes(b, func() error {
		for _, w := range spec.Workloads {
			if _, err := workloadspec.ResolveWorkload(w); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var shapes []jobShape
	for _, w := range spec.Workloads {
		shapes = append(shapes, jobShape{w, "ubs"})
	}
	return serveLayer(b, serveProbe(shapes))
}
