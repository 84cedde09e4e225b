package cache

import "math/rand"

// NewLRU returns a least-recently-used policy.
func NewLRU(sets, ways int) Policy { return &lru{} }

// lru stamps blocks from PolicyState.Clock.
type lru struct{ PolicyState }

func (p *lru) Name() string { return "lru" }

func (p *lru) OnFill(set, way int, b *Block, ctx AccessContext) {
	p.Clock++
	b.LRU = p.Clock
}

func (p *lru) OnHit(set, way int, b *Block, ctx AccessContext) {
	p.Clock++
	b.LRU = p.Clock
}

func (p *lru) OnEvict(set, way int, b *Block) {}

func (p *lru) Victim(set int, blocks []Block, ctx AccessContext) int {
	victim, oldest := 0, ^uint64(0)
	for w := range blocks {
		if !blocks[w].Valid {
			return w
		}
		if blocks[w].LRU < oldest {
			victim, oldest = w, blocks[w].LRU
		}
	}
	return victim
}

// NewFIFO returns a first-in-first-out policy (insertion-order eviction).
func NewFIFO(sets, ways int) Policy { return &fifo{} }

// fifo stamps blocks from PolicyState.Clock at fill only.
type fifo struct{ PolicyState }

func (p *fifo) Name() string { return "fifo" }

func (p *fifo) OnFill(set, way int, b *Block, ctx AccessContext) {
	p.Clock++
	b.LRU = p.Clock
}

func (p *fifo) OnHit(set, way int, b *Block, ctx AccessContext) {}

func (p *fifo) OnEvict(set, way int, b *Block) {}

func (p *fifo) Victim(set int, blocks []Block, ctx AccessContext) int {
	victim, oldest := 0, ^uint64(0)
	for w := range blocks {
		if !blocks[w].Valid {
			return w
		}
		if blocks[w].LRU < oldest {
			victim, oldest = w, blocks[w].LRU
		}
	}
	return victim
}

// NewRandom returns a deterministic pseudo-random replacement policy.
func NewRandom(seed int64) func(sets, ways int) Policy {
	return func(sets, ways int) Policy {
		return &random{rng: rand.New(rand.NewSource(seed))}
	}
}

type random struct{ rng *rand.Rand }

func (p *random) Name() string                                   { return "random" }
func (p *random) OnFill(set, way int, b *Block, _ AccessContext) {}
func (p *random) OnHit(set, way int, b *Block, _ AccessContext)  {}
func (p *random) OnEvict(set, way int, b *Block)                 {}

func (p *random) Victim(set int, blocks []Block, _ AccessContext) int {
	for w := range blocks {
		if !blocks[w].Valid {
			return w
		}
	}
	return p.rng.Intn(len(blocks))
}

// NewSRRIP returns a static re-reference interval prediction policy with
// 2-bit RRPVs (Jaleel et al., ISCA'10), included as a standard comparison
// point for the replacement-policy baselines.
func NewSRRIP(sets, ways int) Policy { return &srrip{max: 3} }

type srrip struct{ max uint8 }

func (p *srrip) Name() string { return "srrip" }

func (p *srrip) OnFill(set, way int, b *Block, ctx AccessContext) {
	b.RRPV = p.max - 1 // long re-reference interval
}

func (p *srrip) OnHit(set, way int, b *Block, ctx AccessContext) {
	b.RRPV = 0
}

func (p *srrip) OnEvict(set, way int, b *Block) {}

func (p *srrip) Victim(set int, blocks []Block, ctx AccessContext) int {
	for {
		for w := range blocks {
			if !blocks[w].Valid {
				return w
			}
			if blocks[w].RRPV >= p.max {
				return w
			}
		}
		for w := range blocks {
			if blocks[w].RRPV < p.max {
				blocks[w].RRPV++
			}
		}
	}
}
