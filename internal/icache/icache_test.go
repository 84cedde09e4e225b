package icache

import (
	"testing"

	"ubscache/internal/cache"
	"ubscache/internal/mem"
)

func hier() *mem.Hierarchy {
	return mem.MustNewHierarchy(mem.DefaultHierarchyConfig())
}

func TestKindStrings(t *testing.T) {
	if Hit.String() != "hit" || Overrun.String() != "overrun" {
		t.Error("kind names wrong")
	}
	if Hit.IsPartial() || FullMiss.IsPartial() {
		t.Error("hit/full-miss classified partial")
	}
	for _, k := range []Kind{MissingSubBlock, Overrun, Underrun} {
		if !k.IsPartial() {
			t.Errorf("%v not partial", k)
		}
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Misses: 10}
	s.ByKind[Overrun] = 2
	s.ByKind[MissingSubBlock] = 1
	s.ByKind[Underrun] = 1
	if got := s.PartialMissFraction(); got != 0.4 {
		t.Errorf("PartialMissFraction = %f", got)
	}
	if got := s.MPKI(1000); got != 10 {
		t.Errorf("MPKI = %f", got)
	}
	var zero Stats
	if zero.PartialMissFraction() != 0 || zero.MPKI(0) != 0 {
		t.Error("zero stats not handled")
	}
}

func TestConventionalHitMiss(t *testing.T) {
	cv, err := NewConventional(Baseline32K(), hier())
	if err != nil {
		t.Fatal(err)
	}
	if cv.Name() != "conv-32KB" || cv.Latency() != 4 {
		t.Errorf("name/lat = %s/%d", cv.Name(), cv.Latency())
	}
	r := cv.Fetch(0x1000, 16, 100)
	if r.Kind != FullMiss || !r.Issued {
		t.Fatalf("cold fetch = %+v", r)
	}
	if r.Complete <= 100 {
		t.Fatalf("completion %d not in the future", r.Complete)
	}
	// While pending, the block is unusable.
	r2 := cv.Fetch(0x1010, 16, 101)
	if r2.Kind != FullMiss || r2.Complete != r.Complete {
		t.Fatalf("pending fetch = %+v, want merged at %d", r2, r.Complete)
	}
	// After completion it hits.
	r3 := cv.Fetch(0x1000, 16, r.Complete+1)
	if r3.Kind != Hit {
		t.Fatalf("post-fill fetch = %+v", r3)
	}
	st := cv.Stats()
	if st.Fetches != 3 || st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestConventionalMSHRBackpressure(t *testing.T) {
	cfg := Baseline32K()
	cfg.MSHRs = 1
	cv, err := NewConventional(cfg, hier())
	if err != nil {
		t.Fatal(err)
	}
	if r := cv.Fetch(0x1000, 4, 0); !r.Issued {
		t.Fatal("first miss rejected")
	}
	if r := cv.Fetch(0x2000, 4, 0); r.Issued {
		t.Error("second miss accepted with 1 MSHR")
	}
	if cv.Stats().MSHRStalls == 0 {
		t.Error("MSHR stall not counted")
	}
}

func TestConventionalPrefetch(t *testing.T) {
	cv, err := NewConventional(Baseline32K(), hier())
	if err != nil {
		t.Fatal(err)
	}
	cv.Prefetch(0x3000, 64, 0)
	if cv.Stats().Prefetches != 1 {
		t.Errorf("Prefetches = %d", cv.Stats().Prefetches)
	}
	// Duplicate prefetch is dropped silently.
	cv.Prefetch(0x3000, 64, 1)
	if cv.Stats().Prefetches != 1 {
		t.Error("duplicate prefetch issued")
	}
	// After arrival, a demand fetch hits.
	r := cv.Fetch(0x3000, 16, 10000)
	if r.Kind != Hit {
		t.Errorf("fetch after prefetch = %+v", r)
	}
}

func TestConventionalEfficiencyAccounting(t *testing.T) {
	cv, err := NewConventional(Baseline32K(), hier())
	if err != nil {
		t.Fatal(err)
	}
	cv.Fetch(0x1000, 16, 0) // 4 of 16 units accessed
	eff, ok := cv.Efficiency()
	if !ok || eff != 0.25 {
		t.Errorf("efficiency = %v, %v; want 0.25", eff, ok)
	}
}

func TestConvSized(t *testing.T) {
	for _, kb := range []int{16, 32, 64, 128, 192} {
		cfg := ConvSized(kb << 10)
		if cfg.Sets*cfg.Ways*cfg.BlockSize != kb<<10 {
			t.Errorf("%dKB: got %d bytes", kb, cfg.Sets*cfg.Ways*cfg.BlockSize)
		}
	}
	if Conv64K().Sets != 128 {
		t.Errorf("Conv64K sets = %d", Conv64K().Sets)
	}
}

func TestACICBypassesDeadBlocks(t *testing.T) {
	cfg := Baseline32K()
	cfg.ACIC = true
	cfg.Sets, cfg.Ways = 1, 4 // tiny cache to force evictions
	cv, err := NewConventional(cfg, hier())
	if err != nil {
		t.Fatal(err)
	}
	// Stream of never-reused blocks: ACIC should learn to bypass them.
	now := uint64(0)
	for i := 0; i < 200; i++ {
		now += 1000
		cv.Fetch(uint64(i+1)*64, 4, now)
	}
	fillsBefore := cv.Cache().Stats().Fills
	for i := 200; i < 400; i++ {
		now += 1000
		cv.Fetch(uint64(i+1)*64, 4, now)
	}
	fills := cv.Cache().Stats().Fills - fillsBefore
	if fills > 150 {
		t.Errorf("ACIC admitted %d/200 dead blocks, want mostly bypassed", fills)
	}
}

func TestACICBypassBufferHit(t *testing.T) {
	cfg := Baseline32K()
	cfg.ACIC = true
	cfg.Sets, cfg.Ways = 1, 2
	cv, err := NewConventional(cfg, hier())
	if err != nil {
		t.Fatal(err)
	}
	// Train towards bypass.
	now := uint64(0)
	for i := 0; i < 100; i++ {
		now += 1000
		cv.Fetch(uint64(i+1)*64, 4, now)
	}
	// A bypassed block fetched again soon must hit in the bypass buffer.
	now += 1000
	cv.Fetch(0x100000, 4, now)
	now += 1000
	r := cv.Fetch(0x100000, 4, now)
	if r.Kind != Hit {
		t.Errorf("bypass-buffer refetch = %+v, want hit", r)
	}
}

func TestSmallBlockConfigValidation(t *testing.T) {
	if _, err := NewSmallBlock(SmallBlockConfig{BlockSize: 24}, hier()); err == nil {
		t.Error("24B block accepted")
	}
}

func TestSmallBlockFetch(t *testing.T) {
	sb, err := NewSmallBlock(SmallBlock16(), hier())
	if err != nil {
		t.Fatal(err)
	}
	// Cold miss fetches the 64B block; only the requested 16B chunk lands
	// in the array.
	r := sb.Fetch(0x1000, 8, 0)
	if r.Kind != FullMiss || !r.Issued {
		t.Fatalf("cold fetch = %+v", r)
	}
	now := r.Complete + 1
	if _, _, hit := sb.Cache().Probe(0x1000); !hit {
		t.Error("requested chunk not installed")
	}
	if _, _, hit := sb.Cache().Probe(0x1030); hit {
		t.Error("non-requested chunk installed")
	}
	// Fetching another chunk of the same 64B block hits via the buffer.
	r2 := sb.Fetch(0x1030, 8, now)
	if r2.Kind != Hit {
		t.Errorf("buffered chunk fetch = %+v", r2)
	}
	if _, _, hit := sb.Cache().Probe(0x1030); !hit {
		t.Error("buffered chunk not migrated to L1")
	}
}

func TestSmallBlockSpanningFetch(t *testing.T) {
	sb, err := NewSmallBlock(SmallBlock32(), hier())
	if err != nil {
		t.Fatal(err)
	}
	r := sb.Fetch(0x1010, 32, 0) // spans two 32B chunks within the block
	if r.Kind != FullMiss {
		t.Fatalf("cold = %+v", r)
	}
	now := r.Complete + 1
	// Both chunks must now be present (installed from the fetch).
	r2 := sb.Fetch(0x1010, 32, now)
	if r2.Kind != Hit {
		t.Errorf("refetch = %+v", r2)
	}
}

func TestSmallBlockPrefetchGoesToBuffer(t *testing.T) {
	sb, err := NewSmallBlock(SmallBlock16(), hier())
	if err != nil {
		t.Fatal(err)
	}
	sb.Prefetch(0x2000, 64, 0)
	if sb.Stats().Prefetches != 1 {
		t.Fatalf("Prefetches = %d", sb.Stats().Prefetches)
	}
	if _, _, hit := sb.Cache().Probe(0x2000); hit {
		t.Error("prefetch installed into L1 array directly")
	}
	// Demand fetch after prefetch hits (from buffer) and migrates.
	r := sb.Fetch(0x2000, 16, 10000)
	if r.Kind != Hit {
		t.Errorf("fetch after prefetch = %+v", r)
	}
}

func TestDistillLOCHit(t *testing.T) {
	d, err := NewDistill(DefaultDistill(), hier())
	if err != nil {
		t.Fatal(err)
	}
	r := d.Fetch(0x1000, 16, 0)
	if r.Kind != FullMiss {
		t.Fatalf("cold = %+v", r)
	}
	r2 := d.Fetch(0x1000, 16, r.Complete+1)
	if r2.Kind != Hit {
		t.Errorf("refetch = %+v", r2)
	}
}

func TestDistillMovesWordsToWOC(t *testing.T) {
	cfg := DefaultDistill()
	cfg.Sets, cfg.LOCWays = 1, 1 // force evictions
	cfg.WOCWords = 32
	d, err := NewDistill(cfg, hier())
	if err != nil {
		t.Fatal(err)
	}
	// Touch only the first 8B of block A (poor spatial locality).
	rA := d.Fetch(0x0000, 8, 0)
	now := rA.Complete + 1
	// Evict A by fetching B.
	rB := d.Fetch(0x4000, 8, now)
	now = rB.Complete + 1
	// A's first word must be servable from the WOC.
	r := d.Fetch(0x0000, 8, now)
	if r.Kind != Hit {
		t.Errorf("WOC fetch = %+v, want hit", r)
	}
	if d.st.WOCHits != 1 {
		t.Errorf("WOCHits = %d", d.st.WOCHits)
	}
	// But an untouched word of A is gone.
	r2 := d.Fetch(0x0020, 8, now+1)
	if r2.Kind == Hit {
		t.Error("untouched word survived distillation")
	}
}

func TestDistillHighUtilisationNotDistilled(t *testing.T) {
	cfg := DefaultDistill()
	cfg.Sets, cfg.LOCWays = 1, 1
	d, err := NewDistill(cfg, hier())
	if err != nil {
		t.Fatal(err)
	}
	// Touch the whole 64B block (good locality) - must NOT be distilled.
	r := d.Fetch(0x0000, 64, 0)
	now := r.Complete + 1
	rB := d.Fetch(0x4000, 8, now)
	now = rB.Complete + 1
	r2 := d.Fetch(0x0000, 8, now)
	if r2.Kind == Hit {
		t.Error("fully-used block was distilled into WOC")
	}
}

func TestDistillEfficiencyCombinesHalves(t *testing.T) {
	d, err := NewDistill(DefaultDistill(), hier())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Efficiency(); ok {
		t.Error("empty distill cache reported efficiency")
	}
	r := d.Fetch(0x1000, 32, 0)
	if eff, ok := d.Efficiency(); !ok || eff != 0.5 {
		t.Errorf("efficiency = %v, %v, want 0.5", eff, ok)
	}
	_ = r
}

func TestFrontendsShareHierarchy(t *testing.T) {
	// Two L1-Is over one hierarchy: the second benefits from L2 fills made
	// by the first (sanity of the shared-hierarchy plumbing).
	h := hier()
	a, _ := NewConventional(Baseline32K(), h)
	b, _ := NewConventional(Conv64K(), h)
	ra := a.Fetch(0x5000, 4, 0)
	rb := b.Fetch(0x5000, 4, 1000000)
	if rb.Complete-1000000 >= ra.Complete {
		t.Errorf("second L1 fetch (%d) did not benefit from shared L2",
			rb.Complete-1000000)
	}
}

var _ = cache.Config{} // keep import for helper use

func TestConventionalByteUnitAccounting(t *testing.T) {
	cfg := Baseline32K()
	cfg.Unit = 1 // byte-granular accounting for variable-length ISAs
	cv, err := NewConventional(cfg, hier())
	if err != nil {
		t.Fatal(err)
	}
	cv.Fetch(0x1000, 7, 0) // 7 of 64 bytes
	eff, ok := cv.Efficiency()
	if !ok || eff < 0.10 || eff > 0.12 {
		t.Errorf("byte-unit efficiency = %v, want ~7/64", eff)
	}
}

func TestGHRPFrontendEndToEnd(t *testing.T) {
	cfg := Baseline32K()
	cfg.Name = "ghrp"
	cfg.NewPolicy = cache.NewGHRP
	cv, err := NewConventional(cfg, hier())
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := 0; i < 20000; i++ {
		now += 20
		addr := 0x10000 + uint64(i%4096)*16
		r := cv.Fetch(addr, 8, now)
		if r.Kind != Hit && r.Issued {
			now = r.Complete
		}
	}
	st := cv.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("GHRP frontend stats: %+v", st)
	}
}
