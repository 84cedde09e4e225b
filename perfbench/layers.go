package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"ubscache/internal/bpu"
	"ubscache/internal/cache"
	"ubscache/internal/checkpoint"
	"ubscache/internal/core"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/obs"
	"ubscache/internal/sim"
	"ubscache/internal/snap"
	"ubscache/internal/trace"
	"ubscache/internal/ubs"
	"ubscache/internal/workloadspec"
)

// sampleEvery is the tracing sample period: one call in every sampleEvery
// calls into a wrapped layer is timed, together with the call after it and
// the gap between the two (the time spent outside the wrapped layers).
// Sampling keeps the cost of the clock reads to about 2% of the run.
const sampleEvery = 64

// sampler is shared by every wrapper of one traced machine, so the calls
// into the instruction source and the L1-I form one sequence.
type sampler struct {
	calls uint64
	reads uint64 // clock reads taken, for the tracing-cost estimate
	armed bool   // the previous call was a sample head; tExit is its end
	tExit int64
	gapNS int64
	gaps  uint64
	// pairNS sums back-to-back clock read pairs taken at each sample
	// head's exit: the in-place cost of one read.
	pairNS int64
}

// span accumulates one layer's call count and its sampled durations.
type span struct {
	calls, samples uint64
	ns             int64
}

// Sample modes returned by enter.
const (
	untimed = iota
	head
	follower
)

func (s *sampler) enter() (int64, int) {
	s.calls++
	if s.armed {
		t := nanotime()
		s.reads++
		s.gapNS += t - s.tExit
		s.gaps++
		s.armed = false
		return t, follower
	}
	if s.calls%sampleEvery == 0 {
		s.reads++
		return nanotime(), head
	}
	return 0, untimed
}

func (s *sampler) exit(sp *span, t0 int64, mode int) {
	sp.calls++
	if mode == untimed {
		return
	}
	t := nanotime()
	s.reads++
	sp.ns += t - t0
	sp.samples++
	if mode == head {
		t2 := nanotime()
		s.reads++
		s.pairNS += t2 - t
		s.armed, s.tExit = true, t2
	}
}

// readCost is the mean in-place cost of one clock read in ns: the amount
// by which every timed interval overstates the work it brackets.
func (s *sampler) readCost() float64 { return ratio(float64(s.pairNS), float64(s.gaps)) }

// perCall is the layer's estimated cost per call in ns: the sampled mean
// less the cost of one clock read, which every timed interval includes.
func (sp span) perCall(clock float64) float64 {
	return ratio(float64(sp.ns), float64(sp.samples)) - clock
}

// totalNS extrapolates the sampled mean to every call.
func (sp span) totalNS(clock float64) float64 { return float64(sp.calls) * sp.perCall(clock) }

// timedSource wraps the instruction source handed to sim.NewMachine.
type timedSource struct {
	src trace.Source
	s   *sampler
	sp  span
}

func (t *timedSource) Next() (trace.Instr, bool) {
	t0, mode := t.s.enter()
	in, ok := t.src.Next()
	t.s.exit(&t.sp, t0, mode)
	return in, ok
}

// timedFrontend wraps the L1-I design handed to sim.NewMachine. Fetch and
// Prefetch include the L2/L3/DRAM walk on misses. Checkpointing passes
// through, so the traced machine can be snapshotted and compared byte for
// byte with the untraced one.
type timedFrontend struct {
	icache.Frontend
	s               *sampler
	fetch, prefetch span
}

func (t *timedFrontend) Fetch(addr uint64, size int, now uint64) icache.Result {
	t0, mode := t.s.enter()
	r := t.Frontend.Fetch(addr, size, now)
	t.s.exit(&t.fetch, t0, mode)
	return r
}

func (t *timedFrontend) Prefetch(addr uint64, size int, now uint64) {
	t0, mode := t.s.enter()
	t.Frontend.Prefetch(addr, size, now)
	t.s.exit(&t.prefetch, t0, mode)
}

func (t *timedFrontend) SnapshotState() ([]byte, error) {
	ck, ok := t.Frontend.(icache.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("frontend %T is not checkpointable", t.Frontend)
	}
	return ck.SnapshotState()
}

func (t *timedFrontend) RestoreState(data []byte) error {
	ck, ok := t.Frontend.(icache.Checkpointable)
	if !ok {
		return fmt.Errorf("frontend %T is not checkpointable", t.Frontend)
	}
	return ck.RestoreState(data)
}

// registryObserver keeps the obs.Registry a machine hands its observer.
type registryObserver struct{ reg *obs.Registry }

func (o *registryObserver) BeginRun(_ obs.RunInfo, reg *obs.Registry) { o.reg = reg }
func (o *registryObserver) Heartbeat(*obs.Heartbeat)                  {}
func (o *registryObserver) EndRun(*obs.Heartbeat, error)              {}

// point is one simulation point: resolve returns its workload and design;
// it runs inside the timed set-up, as it would for a user.
type point struct {
	label   string
	params  sim.Params
	resolve func() (workloadspec.Workload, sim.Design, error)
}

// pointRun is one completed simulation of a point.
type pointRun struct {
	res    sim.Result
	blob   []byte        // canonical simulated state: result JSON + machine snapshot
	instrs uint64        // retired, warmup plus measure
	setup  time.Duration // CPU time of the set-up, its thread only
	cpu    time.Duration // CPU time of warmup plus measure
	wall   time.Duration // wall time of warmup plus measure
	m      *sim.Machine
	wl     workloadspec.Workload
	design sim.Design

	// Traced runs only.
	smp *sampler
	src *timedSource
	fe  *timedFrontend
	reg *obs.Registry
}

// build resolves pt and assembles its machine: the set-up a user pays
// before the first simulated instruction. A traced build wraps the
// instruction source and the L1-I in sampling timers and attaches an
// observer for the model's registry.
func build(pt point, traced bool) (*pointRun, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	wl, d, err := pt.resolve()
	if err != nil {
		return nil, err
	}
	src, err := wl.NewSource()
	if err != nil {
		return nil, err
	}
	r := &pointRun{wl: wl, design: d}
	p := pt.params
	factory := d.Factory
	var ob *registryObserver
	if traced {
		r.smp = &sampler{}
		r.src = &timedSource{src: src, s: r.smp}
		src = r.src
		factory = func(h *mem.Hierarchy) (icache.Frontend, error) {
			fe, err := d.Factory(h)
			if err != nil {
				return nil, err
			}
			r.fe = &timedFrontend{Frontend: fe, s: r.smp}
			return r.fe, nil
		}
		ob = &registryObserver{}
		p.Observer = ob
	}
	r.m, err = sim.NewMachine(context.Background(), p, src, wl.Name, d.Name, factory)
	if err != nil {
		return nil, err
	}
	r.setup = threadCPUTime() - c0
	if ob != nil {
		r.reg = ob.reg
	}
	return r, nil
}

// runPoint builds pt's machine and runs warmup plus measure, as
// workloadspec.Run would.
func runPoint(pt point, traced bool) (*pointRun, error) {
	r, err := build(pt, traced)
	if err != nil {
		return nil, err
	}
	t0, c0 := time.Now(), cpuTime()
	if err := r.m.Warmup(); err != nil {
		return nil, err
	}
	if err := r.m.Advance(pt.params.Measure); err != nil {
		return nil, err
	}
	r.cpu, r.wall = cpuTime()-c0, time.Since(t0)
	r.res = r.m.Finish()
	// Core stats restart at measurement; the warmup phase retired Warmup.
	r.instrs = pt.params.Warmup + r.res.Core.Instructions
	var inner icache.Frontend = r.m.Frontend()
	if r.fe != nil {
		inner = r.fe.Frontend
	}
	if u, ok := inner.(*ubs.Cache); ok {
		st := u.UBSStats()
		r.res.UBS = &st
	}
	r.blob, err = stateBlob(r.m, r.res)
	return r, err
}

// retired reports whether a run retired the requested instructions. The
// core retires whole cycles, so a run ends with the cycle in which it
// reached the request, up to CommitWidth-1 instructions past it.
func retired(got, want uint64) bool {
	return got >= want && got-want < uint64(core.DefaultConfig().CommitWidth)
}

// stateBlob is the canonical encoding of everything a run simulated: the
// result and the complete machine state.
func stateBlob(m *sim.Machine, res sim.Result) ([]byte, error) {
	js, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	var st sim.MachineState
	if err := m.Snapshot(&st); err != nil {
		return nil, err
	}
	state, err := snap.Marshal(&st)
	if err != nil {
		return nil, err
	}
	return append(js, state...), nil
}

// nextProbe times n calls of src.Next in ns per call.
func nextProbe(src trace.Source, n int) (float64, error) {
	t0 := nanotime()
	for i := 0; i < n; i++ {
		if _, ok := src.Next(); !ok {
			return 0, fmt.Errorf("source ended after %d instructions", i)
		}
	}
	return float64(nanotime()-t0) / float64(n), nil
}

// window returns n instructions of wl after skipping the first skip.
func window(wl workloadspec.Workload, skip, n int) ([]trace.Instr, error) {
	src, err := wl.NewSource()
	if err != nil {
		return nil, err
	}
	if err := trace.Skip(src, uint64(skip)); err != nil {
		return nil, err
	}
	out := make([]trace.Instr, 0, n)
	for len(out) < n {
		in, ok := src.Next()
		if !ok {
			return nil, fmt.Errorf("workload %s ended inside the replay window", wl.Name)
		}
		out = append(out, in)
	}
	return out, nil
}

// replayMin is the least time each replay loop is measured for.
const replayMin = 300 * time.Millisecond

// replayBPU times bpu.PredictAndTrain over the window's branches on a
// fresh predictor per pass; it returns ns per branch.
func replayBPU(win []trace.Instr, cfg bpu.Config) float64 {
	var br []trace.Instr
	for _, in := range win {
		if in.Class.IsBranch() {
			br = append(br, in)
		}
	}
	if len(br) == 0 {
		return 0
	}
	var ns int64
	var n int
	for ns < replayMin.Nanoseconds() {
		b := bpu.New(cfg)
		t0 := nanotime()
		for i := range br {
			b.PredictAndTrain(&br[i])
		}
		ns += nanotime() - t0
		n += len(br)
	}
	return float64(ns) / float64(n)
}

// replayL1D times mem.DataCache.Load/Store over the window's memory
// accesses on a fresh hierarchy per pass, issuing them at the cycle the
// measured CPI would place them; it returns ns per access.
func replayL1D(win []trace.Instr, p sim.Params, cpi float64) (float64, error) {
	type access struct {
		in  trace.Instr
		now uint64
	}
	var acc []access
	for i, in := range win {
		if in.Class.IsMem() {
			acc = append(acc, access{in, uint64(float64(i) * cpi)})
		}
	}
	if len(acc) == 0 || !p.DataCache {
		return 0, nil
	}
	var ns int64
	var n int
	for ns < replayMin.Nanoseconds() {
		h, err := mem.NewHierarchy(p.Hierarchy)
		if err != nil {
			return 0, err
		}
		dc, err := mem.NewDataCache(p.L1D, h)
		if err != nil {
			return 0, err
		}
		t0 := nanotime()
		for i := range acc {
			a := &acc[i]
			ctx := cache.AccessContext{PC: a.in.PC, Cycle: a.now}
			if a.in.Class == trace.ClassLoad {
				dc.Load(a.in.MemAddr, a.now, ctx)
			} else {
				dc.Store(a.in.MemAddr, a.now, ctx)
			}
		}
		ns += nanotime() - t0
		n += len(acc)
	}
	return float64(ns) / float64(n), nil
}

// checkpointProbe times checkpoint.Encode and checkpoint.Decode of a
// warmed machine's state (median of several) and checks that the decoded
// state encodes back to the same bytes.
func checkpointProbe(r *pointRun, p sim.Params) (encMS, decMS float64, size int, roundTrip bool, err error) {
	meta := checkpoint.Meta{Workload: r.wl.Spec, WorkloadName: r.wl.Name, Design: r.design.Name,
		Params: p, Instructions: r.res.Core.Instructions}
	var st sim.MachineState
	if err := r.m.Snapshot(&st); err != nil {
		return 0, 0, 0, false, err
	}
	var enc, dec []float64
	var data []byte
	roundTrip = true
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		data, err = checkpoint.Encode(meta, &st)
		if err != nil {
			return 0, 0, 0, false, err
		}
		t1 := time.Now()
		_, back, err := checkpoint.Decode(data)
		if err != nil {
			return 0, 0, 0, false, err
		}
		t2 := time.Now()
		enc = append(enc, t1.Sub(t0).Seconds()*1e3)
		dec = append(dec, t2.Sub(t1).Seconds()*1e3)
		again, err := checkpoint.Encode(meta, back)
		if err != nil {
			return 0, 0, 0, false, err
		}
		roundTrip = roundTrip && bytes.Equal(again, data)
	}
	return median(enc), median(dec), len(data), roundTrip, nil
}
