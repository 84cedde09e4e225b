package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// reconcileTolerance bounds reconcile.err_frac: the sampled layer shares,
// plus the cost of the clock reads taken, must land within this share of
// the traced run's measured ns per instruction.
const reconcileTolerance = 0.25

// replayWindow is the number of instructions, taken after warmup, that
// the BPU and L1-D replays run over.
const replayWindow = 1_000_000

// overheadPairs is the number of untraced and traced runs, alternating,
// that trace.overhead_frac takes the median paired ratio of.
const overheadPairs = 3

// layerBreakdown runs pt untraced and traced, alternating, and records the
// per-layer metrics of the simulator: the in-place shares of the
// instruction source and the L1-I, the replayed BPU and L1-D, the core's
// own time, the reconciliation, the tracing overhead, the checkpoint codec
// and the exact model counts. The shares come from the first pair.
func layerBreakdown(b *bench, pt point) error {
	var u, t *pointRun
	var overhead []float64
	identical := true
	for i := 0; i < overheadPairs; i++ {
		runtime.GC()
		ui, err := runPoint(pt, false)
		if err != nil {
			return err
		}
		b.op(true)
		runtime.GC()
		ti, err := runPoint(pt, true)
		if err != nil {
			return err
		}
		b.op(true)
		identical = identical && bytes.Equal(ui.blob, ti.blob)
		overhead = append(overhead, ti.cpu.Seconds()/ui.cpu.Seconds()-1)
		if u == nil {
			u, t = ui, ti
		}
	}
	b.check("traced stats byte-identical to untraced", identical,
		fmt.Sprintf("%s, %d pairs, %d bytes of result and machine state", pt.label, overheadPairs, len(t.blob)))
	direct, err := workloadspec.Run(context.Background(), pt.params, u.wl, u.design.Name, u.design.Factory)
	if err != nil {
		return err
	}
	b.op(true)
	same, err := sameJSON(direct, u.res)
	if err != nil {
		return err
	}
	b.check("the benchmark's run equals workloadspec.Run", same, pt.label)
	b.check("retired instructions reach the request", retired(t.res.Core.Instructions, pt.params.Measure),
		fmt.Sprintf("%s: %d measured, %d requested", pt.label, t.res.Core.Instructions, pt.params.Measure))

	clock := t.smp.readCost()
	instrs := float64(t.instrs)
	traced := float64(t.wall.Nanoseconds()) / instrs
	untraced := float64(u.wall.Nanoseconds()) / instrs
	src := t.src.sp.totalNS(clock) / instrs
	fetch := t.fe.fetch.totalNS(clock) / instrs
	prefetch := t.fe.prefetch.totalNS(clock) / instrs
	outside := float64(t.smp.calls) * (ratio(float64(t.smp.gapNS), float64(t.smp.gaps)) - clock) / instrs
	reads := float64(t.smp.reads) * clock / instrs

	win, err := window(t.wl, int(pt.params.Warmup), replayWindow)
	if err != nil {
		return err
	}
	var branches, accesses float64
	for _, in := range win {
		if in.Class.IsBranch() {
			branches++
		}
		if in.Class.IsMem() {
			accesses++
		}
	}
	bpuNS := replayBPU(win, pt.params.BPU)
	l1dNS, err := replayL1D(win, pt.params, 1/t.res.IPC())
	if err != nil {
		return err
	}
	bpuShare := bpuNS * branches / float64(len(win))
	l1dShare := l1dNS * accesses / float64(len(win))
	self := outside - bpuShare - l1dShare
	errFrac := math.Abs(src+fetch+prefetch+outside+reads-traced) / traced
	b.printf("layers %s: source %.1f + icache %.1f + outside (bpu %.1f + l1d %.1f + core %.1f) + clock reads %.1f"+
		" = %.1f ns/instr vs %.1f traced, %.1f untraced (clock read %.1f ns; %d samples over %d calls)\n",
		pt.label, src, fetch+prefetch, bpuShare, l1dShare, self, reads,
		src+fetch+prefetch+outside+reads, traced, untraced, clock, t.smp.gaps, t.smp.calls)
	// The reconciliation judges the measurement, not the simulator, so its
	// verdict is reported but does not mark the run incorrect.
	verdict := "within"
	if errFrac > reconcileTolerance || self <= 0 {
		verdict = "OUTSIDE"
	}
	b.printf("reconcile %s tolerance: err %.3f (tolerance %.2f), core self %.1f ns/instr\n",
		verdict, errFrac, reconcileTolerance, self)

	b.put("workload.next_ns_per_instr", t.src.sp.perCall(clock), "in place, sampled, per Next call of "+pt.label)
	b.put("icache.fetch_ns_per_call", t.fe.fetch.perCall(clock), "in place, sampled, includes the L2/L3/DRAM walk")
	b.put("icache.prefetch_ns_per_call", t.fe.prefetch.perCall(clock), "in place, sampled, includes the L2/L3/DRAM walk")
	b.put("icache.ns_per_instr", fetch+prefetch, "fetch plus prefetch share per retired instruction")
	b.put("bpu.ns_per_branch", bpuNS, fmt.Sprintf("replay of %d branches", int(branches)))
	b.put("mem.l1d_ns_per_access", l1dNS, fmt.Sprintf("replay of %d loads and stores", int(accesses)))
	b.put("core.self_ns_per_instr", self, "time outside source and L1-I, less the replayed BPU and L1-D shares")
	b.put("cycle.ns_per_instr_traced", traced, "warmup plus measure of the traced run")
	b.put("trace.overhead_frac", median(overhead), fmt.Sprintf("traced vs untraced CPU time, median of %d alternating pairs", overheadPairs))
	b.put("reconcile.err_frac", errFrac, fmt.Sprintf("tolerance %.2f", reconcileTolerance))

	enc, dec, size, roundTrip, err := checkpointProbe(u, pt.params)
	if err != nil {
		return err
	}
	b.check("checkpoint decodes to the state it encoded", roundTrip, fmt.Sprintf("%d bytes", size))
	b.put("checkpoint.encode_ms", enc, "checkpoint.Encode of the warmed machine, median of 7")
	b.put("checkpoint.decode_ms", dec, "checkpoint.Decode of the same bytes, median of 7")
	b.put("checkpoint.bytes", float64(size), "")

	return modelCounts(b, t)
}

// sameJSON reports whether a and b encode to the same JSON.
func sameJSON(a, b any) (bool, error) {
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	return bytes.Equal(ja, jb), err
}

// modelCounts records the exact simulated statistics of a traced run.
// They are identical from run to run; a speed-only change must leave
// them untouched.
func modelCounts(b *bench, t *pointRun) error {
	res := t.res
	b.put("core.ipc", res.IPC(), "measured phase")
	b.put("core.icache_stall_frac", res.Core.FrontEndStallFraction(), "measured phase")
	b.put("icache.mpki", res.MPKI(), "measured phase")
	b.put("icache.partial_miss_frac", res.ICache.PartialMissFraction(), "measured phase")
	b.put("icache.prefetch_drop_frac", ratio(float64(res.ICache.PrefetchDrops), float64(res.ICache.Prefetches+res.ICache.PrefetchDrops)),
		"dropped / (issued + dropped), measured phase")
	if res.UBS != nil {
		b.put("ubs.predictor_hit_frac", ratio(float64(res.UBS.PredictorHits), float64(res.UBS.Hits)), "whole run")
	} else {
		b.put("ubs.predictor_hit_frac", 0, "0: the design has no UBS predictor")
	}
	var eff float64
	for _, e := range res.EffSamples {
		eff += e
	}
	b.put("ubs.storage_eff_mean", ratio(eff, float64(len(res.EffSamples))), fmt.Sprintf("mean of %d samples", len(res.EffSamples)))
	b.put("bpu.mpki", res.BPU.MPKI(res.Core.Instructions), "measured phase")
	var st sim.MachineState
	if err := t.m.Snapshot(&st); err != nil {
		return err
	}
	b.put("fdip.blocked_fill_frac", ratio(float64(st.FTQ.Stats.BlockedFills), float64(t.m.Core().Clock())),
		"fills while blocked on a mispredict, per cycle, whole run")
	reg := t.reg.Snapshot().Map()
	b.put("mem.l1d_miss_frac", ratio(reg["l1d_misses"], reg["l1d_accesses"]), "obs registry, whole run")
	b.put("mem.l2_miss_frac", ratio(reg["l2_misses"], reg["l2_accesses"]), "obs registry, whole run")
	return nil
}

// mixSpec is the three-tenant mix of examples/specs/clients.yaml with its
// scheduler seed taken from the benchmark seed.
func mixSpec(seed int64) (workloadspec.Spec, error) {
	cfg, err := workloadspec.LoadMixFile("examples/specs/clients.yaml")
	if err != nil {
		return workloadspec.Spec{}, err
	}
	cfg.Seed = derive(seed, 1)
	raw, err := json.Marshal(cfg)
	if err != nil {
		return workloadspec.Spec{}, err
	}
	return workloadspec.Spec{Kind: "mix", Config: raw}, nil
}

// champsimSpec is the ChampSim fixture, looped.
const champsimSpec = "champsim:internal/trace/testdata/tiny.champsim"

// sourceProbes times the instruction sources the in-place wrapper does
// not reach — the mix interleaver and the ChampSim decoder — by calling
// Next directly, and the registry resolution of the given workload specs.
func sourceProbes(b *bench, resolve func() error) error {
	const n = 1_000_000
	mix, err := mixSpec(b.seed)
	if err != nil {
		return err
	}
	for _, probe := range []struct {
		metric string
		spec   func() (workloadspec.Workload, error)
	}{
		{"workloadspec.mix_next_ns_per_instr", func() (workloadspec.Workload, error) { return workloadspec.ResolveWorkload(mix) }},
		{"trace.champsim_next_ns_per_instr", func() (workloadspec.Workload, error) { return workloadspec.ParseWorkload(champsimSpec) }},
	} {
		wl, err := probe.spec()
		if err != nil {
			return err
		}
		src, err := wl.NewSource()
		if err != nil {
			return err
		}
		ns, err := nextProbe(src, n)
		if err != nil {
			return err
		}
		if c, ok := src.(interface{ Close() error }); ok {
			c.Close()
		}
		b.put(probe.metric, ns, fmt.Sprintf("%d direct Next calls", n))
	}
	var ms []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		if err := resolve(); err != nil {
			return err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	b.put("workloadspec.resolve_ms", median(ms), "resolving this workload's specs, median of 9")
	return nil
}

// derive returns a seed for one input stream of the run (splitmix64 of
// the benchmark seed and the stream number).
func derive(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}
