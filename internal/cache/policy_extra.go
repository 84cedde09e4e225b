package cache

// Additional replacement policies beyond the paper's set: tree-PLRU (the
// common hardware approximation of LRU) and DRRIP (dynamic re-reference
// interval prediction with set dueling). They give the replacement-policy
// comparisons of Figure 13 more context and serve as further baselines for
// library users.

// NewPLRU returns a tree-based pseudo-LRU policy. Ways must be a power of
// two; other associativities fall back to true LRU.
func NewPLRU(sets, ways int) Policy {
	if ways&(ways-1) != 0 || ways < 2 {
		return NewLRU(sets, ways)
	}
	return &plru{PolicyState: PolicyState{Bits: make([]uint64, sets)}, ways: ways}
}

// plru keeps the internal tree nodes of each set packed into
// PolicyState.Bits (ways-1 nodes; supports up to 64 ways).
type plru struct {
	PolicyState
	ways int
}

func (p *plru) Name() string { return "plru" }

// touch flips the tree nodes on the path to `way` so they point away.
func (p *plru) touch(set, way int) {
	node := 1
	for levelWays := p.ways; levelWays > 1; levelWays /= 2 {
		half := levelWays / 2
		bit := uint64(1) << uint(node-1)
		if way < half {
			p.Bits[set] |= bit // point right (away from the touched way)
			node = node * 2
		} else {
			p.Bits[set] &^= bit // point left
			node = node*2 + 1
			way -= half
		}
	}
}

func (p *plru) OnFill(set, way int, b *Block, ctx AccessContext) { p.touch(set, way) }
func (p *plru) OnHit(set, way int, b *Block, ctx AccessContext)  { p.touch(set, way) }
func (p *plru) OnEvict(set, way int, b *Block)                   {}

func (p *plru) Victim(set int, blocks []Block, ctx AccessContext) int {
	for w := range blocks {
		if !blocks[w].Valid {
			return w
		}
	}
	// Follow the tree pointers to the pseudo-least-recently-used leaf.
	node, way, levelWays := 1, 0, p.ways
	for levelWays > 1 {
		half := levelWays / 2
		bit := uint64(1) << uint(node-1)
		if p.Bits[set]&bit != 0 {
			// Pointer says right.
			node = node*2 + 1
			way += half
		} else {
			node = node * 2
		}
		levelWays = half
	}
	return way
}

// NewDRRIP returns a dynamic RRIP policy: set dueling between SRRIP and
// BRRIP insertion (Jaleel et al., ISCA'10).
func NewDRRIP(sets, ways int) Policy {
	d := &drrip{max: 3, sets: sets}
	return d
}

// drrip keeps its policy-selection counter in PolicyState.PSel (high =
// BRRIP wins) and BRRIP's infrequent near-insertion counter in
// PolicyState.BRCnt.
type drrip struct {
	PolicyState
	max  uint8
	sets int
}

func (d *drrip) Name() string { return "drrip" }

// leader classifies a set: 0 = SRRIP leader, 1 = BRRIP leader, 2 follower.
func (d *drrip) leader(set int) int {
	switch {
	case set%32 == 0:
		return 0
	case set%32 == 1:
		return 1
	default:
		return 2
	}
}

func (d *drrip) OnFill(set, way int, b *Block, ctx AccessContext) {
	useBR := false
	switch d.leader(set) {
	case 0:
		useBR = false
	case 1:
		useBR = true
	default:
		useBR = d.PSel > 0
	}
	if useBR {
		// BRRIP: distant re-reference mostly, near-distant 1/32 of fills.
		d.BRCnt++
		if d.BRCnt%32 == 0 {
			b.RRPV = d.max - 1
		} else {
			b.RRPV = d.max
		}
	} else {
		b.RRPV = d.max - 1 // SRRIP insertion
	}
}

func (d *drrip) OnHit(set, way int, b *Block, ctx AccessContext) {
	b.RRPV = 0
	// A hit in a leader set rewards that leader's policy.
	switch d.leader(set) {
	case 0:
		if d.PSel > -1024 {
			d.PSel--
		}
	case 1:
		if d.PSel < 1023 {
			d.PSel++
		}
	}
}

func (d *drrip) OnEvict(set, way int, b *Block) {}

func (d *drrip) Victim(set int, blocks []Block, ctx AccessContext) int {
	for {
		for w := range blocks {
			if !blocks[w].Valid {
				return w
			}
			if blocks[w].RRPV >= d.max {
				return w
			}
		}
		for w := range blocks {
			if blocks[w].RRPV < d.max {
				blocks[w].RRPV++
			}
		}
	}
}
