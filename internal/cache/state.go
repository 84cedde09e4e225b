package cache

// State is a Cache's mutable state, and the checkpoint image of it: every
// Block of every set (set-major) plus the counters and whatever mutable
// state the replacement policy carries. Geometry (sets, ways, block
// size) is configuration, not state — a restore requires a Cache built
// from the same Config, and the Blocks length is the check.
//
//ubs:state
type State struct {
	// Blocks holds Sets*Ways entries, set-major.
	Blocks []Block
	Stats  Stats
	// Policy points at the replacement policy's own state; it is nil for
	// a policy that carries none beyond the per-Block metadata (srrip,
	// whose state lives in Block.RRPV, and policies from outside this
	// package). The seeded random policy is NOT checkpoint-safe and no
	// registered design uses it.
	Policy *PolicyState
}

// PolicyState is the union of every stateful replacement policy's
// mutable fields; each such policy embeds one and works on it directly.
// Exactly the fields the cache's policy uses are meaningful; the rest
// stay zero.
type PolicyState struct {
	// Clock is the lru/fifo monotonic tick and the ghrp access clock.
	Clock uint64
	// History is ghrp's global branchless access history.
	History uint32
	// Tables holds ghrp's dead-block predictor tables.
	Tables [][]uint8
	// Bits holds plru's per-set tree bits.
	Bits []uint64
	// PSel and BRCnt are drrip's set-dueling selector and BRRIP counter.
	PSel  int64
	BRCnt uint32
}

// policyState returns the state a policy embeds; it is how Cache finds
// the PolicyState to point State.Policy at.
func (p *PolicyState) policyState() *PolicyState { return p }

// State returns the cache's live state. Snapshots copy it; restores
// write into it.
func (c *Cache) State() *State { return &c.st }
