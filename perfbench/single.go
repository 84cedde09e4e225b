package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ubscache/internal/runner"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// single is a single-run workload: ubsim-style runs of a preset on a
// design, warmup first, then measure. The benchmark seed reseeds the
// preset's program generator, so each seed gives different programs of
// the same shape.
type single struct{ preset, design string }

var (
	// serverUBS is front-end bound: the UBS fill/distill path, FDIP
	// prefetch, the MSHRs and the L2 walk do most of the work.
	serverUBS = single{"server_003", "ubs"}
	// specConv32 is loop-dominated: the L1-I miss path is almost idle, so
	// the core backend, BPU and L1-D dominate.
	specConv32 = single{"spec_001", "conv32"}
)

// programs is the number of seeded programs a single-run workload runs in
// turn. Programs of the same shape differ in cost per instruction: two
// server_003 seeds measured 10-15% apart, every time. Averaging three
// cuts that part of the seed-to-seed spread.
const programs = 3

// minRounds and minSetups bound the sample counts of a single-run workload
// from below, whatever the time budget: every program runs at least
// minRounds times.
const minRounds, minSetups = 2, 25

// spec returns seeded program k of the workload as a registry spec.
func (s single) spec(seed int64, k int) (workloadspec.Spec, error) {
	wl, err := workloadspec.ParseWorkload(s.preset)
	if err != nil {
		return workloadspec.Spec{}, err
	}
	cfg, _ := wl.Config()
	cfg.Seed ^= derive(seed, 10+uint64(k))
	return workloadspec.FromConfig(cfg).Spec, nil
}

// point is program k at the default run lengths (1M warmup, 4M measure).
func (s single) point(seed int64, k int) point {
	return point{
		label:  fmt.Sprintf("%s#%d/%s", s.preset, k, s.design),
		params: sim.DefaultParams(),
		resolve: func() (workloadspec.Workload, sim.Design, error) {
			spec, err := s.spec(seed, k)
			if err != nil {
				return workloadspec.Workload{}, sim.Design{}, err
			}
			wl, err := workloadspec.ResolveWorkload(spec)
			if err != nil {
				return workloadspec.Workload{}, sim.Design{}, err
			}
			d, err := sim.ParseDesign(s.design)
			return wl, d, err
		},
	}
}

// singleRun measures a single-run workload. Untraced, it runs the
// programs in turn, each on a fresh machine, in whole rounds until the
// budget is spent. It reports the mean over the programs of each one's
// median CPU time per instruction; the wall time is printed beside it.
func singleRun(b *bench, s single) error {
	if b.traced {
		return singleTraced(b, s)
	}
	var pts [programs]point
	var cpuNS, wallNS [programs][]float64
	var first [programs][]byte
	for k := range pts {
		pts[k] = s.point(b.seed, k)
	}
	var setups []float64
	var over uint64
	same, counted := true, true
	start := time.Now()
	n := 0
	for ; n < programs*minRounds || n%programs != 0 || time.Since(start) < b.budget; n++ {
		k := n % programs
		runtime.GC() // every run starts from a collected heap
		r, err := runPoint(pts[k], false)
		if err != nil {
			return err
		}
		b.op(true)
		if first[k] == nil {
			first[k] = r.blob
		} else if !bytes.Equal(first[k], r.blob) {
			same = false
		}
		counted = counted && retired(r.res.Core.Instructions, pts[k].params.Measure)
		over = max(over, r.res.Core.Instructions-pts[k].params.Measure)
		setups = append(setups, r.setup.Seconds())
		cpuNS[k] = append(cpuNS[k], float64(r.cpu.Nanoseconds())/float64(r.instrs))
		wallNS[k] = append(wallNS[k], float64(r.wall.Nanoseconds())/float64(r.instrs))
	}
	pad := 0
	setup, nSetups, err := setupMedian(setups, func() (time.Duration, error) {
		runtime.GC()
		r, err := build(pts[pad%programs], false)
		pad++
		if err != nil {
			return 0, err
		}
		return r.setup, nil
	})
	if err != nil {
		return err
	}
	var cpu, wall float64
	for k := range pts {
		cpu += median(cpuNS[k]) / programs
		wall += median(wallNS[k]) / programs
	}
	b.check("retired instructions reach the request", counted,
		fmt.Sprintf("%d runs of %d measured instructions, at most %d past it", n, pts[0].params.Measure, over))
	b.check("repeated runs give identical stats", same,
		fmt.Sprintf("%d programs, %d runs each", programs, n/programs))
	b.printf("wall time %.1f ns/instr, mean over %d programs of the median of %d runs each\n", wall, programs, n/programs)
	b.put("setup_s", setup, fmt.Sprintf("CPU time of its thread to resolve, generate the program, NewMachine; median of %d", nSetups))
	b.put("sim_ns_per_instr", cpu, fmt.Sprintf("CPU time of warmup plus measure per instruction; mean over %d programs of the median of %d runs each", programs, n/programs))
	return nil
}

// singleTraced gives the per-layer breakdown of a single-run workload's
// first program. The runner and serve layers, which a single run does not
// use, are measured with short runs of the same program.
func singleTraced(b *bench, s single) error {
	if err := layerBreakdown(b, s.point(b.seed, 0)); err != nil {
		return err
	}
	spec, err := s.spec(b.seed, 0)
	if err != nil {
		return err
	}
	if err := sourceProbes(b, func() error { _, err := workloadspec.ResolveWorkload(spec); return err }); err != nil {
		return err
	}
	ds, err := sim.ParseDesignSpec(s.design)
	if err != nil {
		return err
	}
	sw := runner.Spec{
		Designs: []sim.DesignSpec{ds}, Workloads: []workloadspec.Spec{spec},
		Parallel: b.workers, Params: probeParams,
	}
	if _, err := runnerLayer(b, sw); err != nil {
		return err
	}
	return serveLayer(b, serveProbe([]jobShape{{spec, s.design}}))
}
