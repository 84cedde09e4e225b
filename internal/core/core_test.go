package core

import (
	"testing"

	"ubscache/internal/bpu"
	"ubscache/internal/fdip"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/trace"
	"ubscache/internal/workload"
)

// build wires a core over a trace source with the Table I defaults.
func build(t *testing.T, src trace.Source, withDC bool) (*Core, icache.Frontend) {
	t.Helper()
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	ic, err := icache.NewConventional(icache.Baseline32K(), h)
	if err != nil {
		t.Fatal(err)
	}
	var dc *mem.DataCache
	if withDC {
		dc, err = mem.NewDataCache(mem.DefaultDataCacheConfig(), h)
		if err != nil {
			t.Fatal(err)
		}
	}
	ftq := fdip.New(fdip.DefaultConfig(), src, bpu.New(bpu.Config{}), ic)
	return New(DefaultConfig(), ftq, ic, dc), ic
}

// straight builds n sequential non-branch instructions.
func straight(n int) []trace.Instr {
	ins := make([]trace.Instr, n)
	pc := uint64(0x10000)
	for i := range ins {
		ins[i] = trace.Instr{PC: pc, Size: 4, Class: trace.ClassOther}
		pc += 4
	}
	return ins
}

func TestStallReasonNames(t *testing.T) {
	if StallICache.String() != "icache" || StallMispredict.String() != "mispredict" {
		t.Error("stall names wrong")
	}
}

func TestRunsToCompletion(t *testing.T) {
	c, _ := build(t, trace.NewSlice(straight(1000)), false)
	if ok := c.Run(1000); !ok {
		t.Fatal("trace ended before 1000 instructions")
	}
	st := c.Stats()
	if st.Instructions != 1000 {
		t.Fatalf("retired %d", st.Instructions)
	}
	if st.Cycles == 0 || st.IPC() <= 0 {
		t.Fatalf("cycles %d, IPC %f", st.Cycles, st.IPC())
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTraceEndDetected(t *testing.T) {
	c, _ := build(t, trace.NewSlice(straight(100)), false)
	if ok := c.Run(1000); ok {
		t.Fatal("Run claimed success past trace end")
	}
	if got := c.Stats().Instructions; got != 100 {
		t.Errorf("retired %d, want 100", got)
	}
}

func TestIPCBoundedByWidth(t *testing.T) {
	c, _ := build(t, trace.NewSlice(straight(20000)), false)
	c.Run(20000)
	if ipc := c.Stats().IPC(); ipc > 4.0 {
		t.Errorf("IPC %f exceeds the 4-wide limit", ipc)
	}
}

func TestHotLoopIPCNearWidth(t *testing.T) {
	// An L1-resident loop of independent instructions should approach the
	// 4-wide fetch limit once warm.
	body := straight(2000) // 8KB, fits the 32KB L1-I
	last := &body[len(body)-1]
	last.Class = trace.ClassDirectJump
	last.Taken = true
	last.Target = body[0].PC
	c, _ := build(t, trace.NewLoop(body), false)
	c.Run(20000) // warm
	c.ResetStats()
	c.Run(100000)
	if ipc := c.Stats().IPC(); ipc < 2.5 {
		t.Errorf("hot-loop IPC = %f, want >= 2.5 (stalls %v)", ipc, c.Stats().Stalls)
	}
}

func TestStreamingFootprintIsMemoryBound(t *testing.T) {
	// A 200KB straight-line stream cannot fit any L1-I: IPC must collapse
	// towards the DRAM-bandwidth bound and icache stalls must dominate.
	c, _ := build(t, trace.NewSlice(straight(50000)), false)
	c.Run(2000)
	c.ResetStats()
	c.Run(40000)
	st := c.Stats()
	if st.IPC() > 1.0 {
		t.Errorf("streaming IPC = %f, want memory-bound (< 1)", st.IPC())
	}
	if st.Stalls[StallICache] < st.Cycles/2 {
		t.Errorf("icache stalls %d not dominant over %d cycles",
			st.Stalls[StallICache], st.Cycles)
	}
}

func TestDependenceChainsLimitIPC(t *testing.T) {
	// A fully serial dependence chain cannot exceed 1 IPC.
	ins := straight(20000)
	for i := range ins {
		ins[i].Dep1 = 1
	}
	c, _ := build(t, trace.NewSlice(ins), false)
	c.Run(1000)
	c.ResetStats()
	c.Run(15000)
	if ipc := c.Stats().IPC(); ipc > 1.01 {
		t.Errorf("serial chain IPC = %f, want <= 1", ipc)
	}
}

func TestColdICacheStallsCounted(t *testing.T) {
	// A huge footprint with no reuse forces icache stalls.
	ins := make([]trace.Instr, 30000)
	pc := uint64(0x100000)
	for i := range ins {
		ins[i] = trace.Instr{PC: pc, Size: 4, Class: trace.ClassOther}
		pc += 64 // one instruction per block: every block is a cold miss
		ins[i].Class = trace.ClassDirectJump
		ins[i].Taken = true
		ins[i].Target = pc
	}
	cfg := DefaultConfig()
	cfg.FTQ.Prefetch = false // expose raw misses
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	ic, _ := icache.NewConventional(icache.Baseline32K(), h)
	ftq := fdip.New(cfg.FTQ, trace.NewSlice(ins), bpu.New(bpu.Config{}), ic)
	c := New(cfg, ftq, ic, nil)
	c.Run(20000)
	st := c.Stats()
	if st.Stalls[StallICache] == 0 {
		t.Fatal("no icache stalls on a cold streaming footprint")
	}
	if st.FrontEndStallFraction() < 0.3 {
		t.Errorf("front-end stall fraction %.2f, want dominant", st.FrontEndStallFraction())
	}
}

func TestMispredictStallsCounted(t *testing.T) {
	// Cold indirect jumps every few instructions force mispredict waits.
	var ins []trace.Instr
	pc := uint64(0x10000)
	for i := 0; i < 8000; i++ {
		for k := 0; k < 3; k++ {
			ins = append(ins, trace.Instr{PC: pc, Size: 4, Class: trace.ClassOther})
			pc += 4
		}
		target := pc + 4 + uint64((i%977)*64) // hard-to-predict target
		ins = append(ins, trace.Instr{PC: pc, Size: 4,
			Class: trace.ClassIndirectJump, Taken: true, Target: target})
		pc = target
	}
	c, _ := build(t, trace.NewSlice(ins), false)
	c.Run(20000)
	if c.Stats().Stalls[StallMispredict] == 0 {
		t.Error("no mispredict stalls with unpredictable indirect jumps")
	}
}

func TestLoadsAccessDataCache(t *testing.T) {
	ins := straight(5000)
	for i := range ins {
		if i%4 == 0 {
			ins[i].Class = trace.ClassLoad
			ins[i].MemAddr = 0x8000_0000 + uint64(i)*64
		}
	}
	c, _ := build(t, trace.NewSlice(ins), true)
	c.Run(5000)
	st := c.Stats()
	if st.Loads == 0 {
		t.Fatal("no loads dispatched")
	}
	if st.IPC() >= 3.9 {
		t.Errorf("IPC %f unaffected by cold loads", st.IPC())
	}
}

func TestStoresCounted(t *testing.T) {
	ins := straight(2000)
	for i := range ins {
		if i%5 == 0 {
			ins[i].Class = trace.ClassStore
			ins[i].MemAddr = 0x9000_0000 + uint64(i)*8
		}
	}
	c, _ := build(t, trace.NewSlice(ins), true)
	c.Run(2000)
	if c.Stats().Stores != 400 {
		t.Errorf("stores = %d, want 400", c.Stats().Stores)
	}
}

func TestResetStats(t *testing.T) {
	c, _ := build(t, trace.NewSlice(straight(10000)), false)
	c.Run(2000)
	c.ResetStats()
	if c.Stats().Instructions != 0 || c.Stats().Cycles != 0 {
		t.Error("ResetStats did not clear counters")
	}
	c.Run(2000)
	if c.Stats().Instructions != 2000 {
		t.Errorf("retired %d after reset", c.Stats().Instructions)
	}
}

func TestFetchNeverCrossesBlock(t *testing.T) {
	// Instrumented frontend asserting the §IV-A contract: fetch ranges
	// stay within one 64B block.
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	inner, _ := icache.NewConventional(icache.Baseline32K(), h)
	probe := &assertingFrontend{Frontend: inner, t: t}
	ftq := fdip.New(fdip.DefaultConfig(), trace.NewSlice(straight(20000)),
		bpu.New(bpu.Config{}), probe)
	c := New(DefaultConfig(), ftq, probe, nil)
	c.Run(20000)
	if probe.fetches == 0 {
		t.Fatal("no fetches observed")
	}
}

type assertingFrontend struct {
	icache.Frontend
	t       *testing.T
	fetches int
}

func (a *assertingFrontend) Fetch(addr uint64, size int, now uint64) icache.Result {
	if (addr &^ 63) != ((addr + uint64(size) - 1) &^ 63) {
		a.t.Fatalf("fetch [%#x,+%d) crosses a 64B boundary", addr, size)
	}
	if size < 1 || size > 16 {
		a.t.Fatalf("fetch size %d out of [1,16]", size)
	}
	a.fetches++
	return a.Frontend.Fetch(addr, size, now)
}

func TestEndToEndWorkloadIPC(t *testing.T) {
	// Full-stack smoke: a SPEC-like workload with a data cache must reach
	// a plausible IPC (well above 0.3, below 4) with few icache stalls.
	cfg, err := workload.Preset(workload.FamilySPEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, ic := build(t, w, true)
	c.Run(30000)
	c.ResetStats()
	c.Run(100000)
	st := c.Stats()
	if st.IPC() < 0.3 || st.IPC() > 4 {
		t.Errorf("SPEC IPC = %f, implausible", st.IPC())
	}
	mpki := ic.Stats().MPKI(st.Instructions)
	t.Logf("spec_001: IPC=%.2f icache-MPKI=%.1f stalls=%v", st.IPC(), mpki, st.Stalls)
}

func TestVarLenWorkloadEndToEnd(t *testing.T) {
	// Variable-length (x86-like) instructions straddle block boundaries;
	// the fetch engine must split probes and still retire correctly.
	cfg, err := workload.Preset(workload.FamilyX86Server, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	inner, _ := icache.NewConventional(icache.Baseline32K(), h)
	probe := &assertingFrontend{Frontend: inner, t: t}
	ftq := fdip.New(fdip.DefaultConfig(), w, bpu.New(bpu.Config{}), probe)
	c := New(DefaultConfig(), ftq, probe, nil)
	if !c.Run(100000) {
		t.Fatal("trace ended")
	}
	st := c.Stats()
	if st.IPC() <= 0 || st.IPC() > 4 {
		t.Errorf("x86 IPC %f", st.IPC())
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFetchRangeSplitsAtBlocks(t *testing.T) {
	h := mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
	ic, _ := icache.NewConventional(icache.Baseline32K(), h)
	ftq := fdip.New(fdip.DefaultConfig(), trace.NewSlice(straight(10)),
		bpu.New(bpu.Config{}), ic)
	c := New(DefaultConfig(), ftq, ic, nil)
	// A 10-byte range starting 4 bytes before a block boundary: two probes.
	r := c.fetchRange(0x1040-4, 10, 0)
	if r.Kind == icache.Hit {
		t.Fatal("cold spanning fetch hit")
	}
	// After both blocks arrive, the spanning fetch hits.
	r1 := c.fetchRange(0x1040-4, 10, r.Complete+1)
	if r1.Kind != icache.Hit {
		// The second half may still be missing; fetch it and retry.
		r2 := c.fetchRange(0x1040-4, 10, r1.Complete+1)
		if r2.Kind != icache.Hit {
			t.Fatalf("spanning fetch still missing: %+v", r2)
		}
	}
}

func TestOversizedInstructionFetchesAlone(t *testing.T) {
	// An instruction wider than the 16B fetch bandwidth must still fetch
	// (alone) rather than deadlocking the chunk builder.
	ins := []trace.Instr{
		{PC: 0x10000, Size: 24, Class: trace.ClassOther},
		{PC: 0x10018, Size: 4, Class: trace.ClassOther},
	}
	c, _ := build(t, trace.NewSlice(ins), false)
	if ok := c.Run(2); !ok && c.Stats().Instructions != 2 {
		t.Fatalf("retired %d of 2", c.Stats().Instructions)
	}
}

func TestFarCompletionsMigrate(t *testing.T) {
	// DRAM timings of 600 cycles each put every row-missing load more
	// than WheelSlots cycles past its dispatch, so completions take the
	// far list and reach the wheel only at a lap boundary. Validate
	// recounts the in-flight ROB entries after every cycle: a far entry
	// migrated late, early or never leaves the occupancy totals wrong.
	// The second run also rebuilds the occupancy from the ROB every 997
	// cycles, as a restore does, and must retire on the same cycles.
	run := func(rebuildEvery uint64) (Stats, int) {
		hcfg := mem.DefaultHierarchyConfig()
		hcfg.DRAM.TRP, hcfg.DRAM.TRCD, hcfg.DRAM.TCAS = 600, 600, 600
		h := mem.MustNewHierarchy(hcfg)
		ic, err := icache.NewConventional(icache.Baseline32K(), h)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := mem.NewDataCache(mem.DefaultDataCacheConfig(), h)
		if err != nil {
			t.Fatal(err)
		}
		ins := farLoads()
		ftq := fdip.New(fdip.DefaultConfig(), trace.NewSlice(ins), bpu.New(bpu.Config{}), ic)
		c := New(DefaultConfig(), ftq, ic, dc)
		farCycles := 0
		for c.Stats().Instructions < uint64(len(ins)) {
			c.Cycle()
			if rebuildEvery > 0 && c.Clock()%rebuildEvery == 0 {
				c.Rebuild()
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("cycle %d: %v", c.Clock(), err)
			}
			if len(c.busy.far) > 0 {
				farCycles++
			}
		}
		return c.Stats(), farCycles
	}
	want, farCycles := run(0)
	if farCycles == 0 {
		t.Fatal("no completion took the far list")
	}
	if laps := want.Cycles / WheelSlots; laps < 4 {
		t.Fatalf("run spans %d wheel laps, want several", laps)
	}
	if got, _ := run(997); got != want {
		t.Errorf("rebuilt run diverged:\n got:  %+v\n want: %+v", got, want)
	}
}

// farLoads is a 64-instruction loop, so the L1-I warms at once, whose
// every sixteenth instruction loads from a fresh DRAM row; every other
// load depends on the previous one.
func farLoads() []trace.Instr {
	const body, n = 64, 2000
	ins := make([]trace.Instr, n)
	for i := range ins {
		k := i % body
		ins[i] = trace.Instr{PC: 0x10000 + uint64(k)*4, Size: 4, Class: trace.ClassOther}
		if k%16 == 0 {
			ins[i].Class = trace.ClassLoad
			ins[i].MemAddr = 0x8000_0000 + uint64(i)*(8192+64)
			if k%32 == 0 {
				ins[i].Dep1 = 16
			}
		}
		if k == body-1 {
			ins[i].Class = trace.ClassDirectJump
			ins[i].Taken = true
			ins[i].Target = 0x10000
		}
	}
	return ins
}
