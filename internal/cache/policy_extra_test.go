package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPLRUFallsBackOnOddWays(t *testing.T) {
	if NewPLRU(4, 3).Name() != "lru" {
		t.Error("non-power-of-two ways did not fall back to LRU")
	}
	if NewPLRU(4, 8).Name() != "plru" {
		t.Error("power-of-two ways did not build PLRU")
	}
}

func TestPLRUApproximatesLRU(t *testing.T) {
	// With strict round-robin touches, PLRU must evict a way that was not
	// recently touched (never the most recently used one).
	c := MustNew(Config{Sets: 1, Ways: 4, BlockSize: 64, NewPolicy: NewPLRU})
	ctx := AccessContext{}
	for i := 0; i < 4; i++ {
		c.Fill(uint64(i)*64, ctx)
	}
	c.Access(0*64, 4, ctx) // way holding block 0 is MRU
	v := c.Fill(4*64, ctx)
	if v.Tag == 0 {
		t.Error("PLRU evicted the most recently used block")
	}
}

func TestPLRUVictimsValidUnderStorm(t *testing.T) {
	f := func(seed int64) bool {
		c := MustNew(Config{Sets: 4, Ways: 8, BlockSize: 64, NewPolicy: NewPLRU})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(512)) * 64
			ctx := AccessContext{Cycle: uint64(i)}
			if !c.Access(addr, 4, ctx) {
				c.Fill(addr, ctx)
			}
		}
		// All sets full, no duplicates.
		seen := map[uint64]bool{}
		ok := true
		c.ForEach(func(set, way int, b *Block) {
			if seen[b.Tag] {
				ok = false
			}
			seen[b.Tag] = true
		})
		return ok && c.ResidentBlocks() == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDRRIPBasics(t *testing.T) {
	c := MustNew(Config{Sets: 64, Ways: 4, BlockSize: 64, NewPolicy: NewDRRIP})
	ctx := AccessContext{}
	c.Fill(0, ctx)
	if !c.Access(0, 4, ctx) {
		t.Fatal("miss after fill")
	}
	// Fill far past capacity; structure stays sound.
	for i := 0; i < 2000; i++ {
		addr := uint64(i) * 64
		if !c.Access(addr, 4, ctx) {
			c.Fill(addr, ctx)
		}
	}
	if c.ResidentBlocks() != 64*4 {
		t.Errorf("resident %d, want full", c.ResidentBlocks())
	}
}

func TestDRRIPDuelingMovesPsel(t *testing.T) {
	d := NewDRRIP(64, 4).(*drrip)
	var b Block
	// Hits in the BRRIP leader set push psel up.
	before := d.PSel
	for i := 0; i < 10; i++ {
		d.OnHit(1, 0, &b, AccessContext{})
	}
	if d.PSel <= before {
		t.Error("BRRIP leader hits did not raise psel")
	}
	// Hits in the SRRIP leader set push it down.
	for i := 0; i < 20; i++ {
		d.OnHit(0, 0, &b, AccessContext{})
	}
	if d.PSel >= before+10 {
		t.Error("SRRIP leader hits did not lower psel")
	}
}

func TestDRRIPScanResistance(t *testing.T) {
	// A scanning stream (no reuse) against a small reused set: DRRIP
	// should keep the reused blocks resident better than chance. We check
	// simply that the hot blocks survive a moderate scan.
	c := MustNew(Config{Sets: 1, Ways: 8, BlockSize: 64, NewPolicy: NewDRRIP})
	ctx := AccessContext{}
	hot := []uint64{0, 64, 128, 192}
	for _, h := range hot {
		c.Fill(h, ctx)
	}
	for round := 0; round < 50; round++ {
		for _, h := range hot {
			if !c.Access(h, 4, ctx) {
				c.Fill(h, ctx)
			}
		}
		// Two scan blocks per round.
		for k := 0; k < 2; k++ {
			addr := uint64(1000+round*2+k) * 64
			if !c.Access(addr, 4, ctx) {
				c.Fill(addr, ctx)
			}
		}
	}
	resident := 0
	for _, h := range hot {
		if _, _, hit := c.Probe(h); hit {
			resident++
		}
	}
	if resident < 3 {
		t.Errorf("only %d/4 hot blocks survived the scan", resident)
	}
}

func TestExtraPolicyNames(t *testing.T) {
	if NewDRRIP(4, 4).Name() != "drrip" {
		t.Error("drrip name")
	}
}
