// Package core implements the out-of-order core timing model of Table I:
// a 4-wide fetch/decode/commit pipeline with a 224-entry ROB, a 97-entry
// scheduler window, 128/72-entry load/store queues, a decoupled FDIP front
// end, and per-cycle front-end stall attribution — the instrumentation
// behind the paper's Figure 8 (stall cycles covered) and Figure 10 (IPC).
package core

import (
	"fmt"

	"ubscache/internal/cache"
	"ubscache/internal/fdip"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/trace"
)

// StallReason attributes a zero-delivery fetch cycle.
type StallReason uint8

const (
	// StallNone: instructions were delivered this cycle.
	StallNone StallReason = iota
	// StallICache: the head fetch chunk's bytes are absent from the L1-I —
	// the paper's front-end stall metric.
	StallICache
	// StallMispredict: fetch is waiting for a mispredicted branch to
	// resolve and redirect.
	StallMispredict
	// StallResteer: a decode-time resteer bubble (BTB miss, direct target).
	StallResteer
	// StallBackpressure: the decode queue or ROB is full.
	StallBackpressure
	// StallFTQEmpty: the FTQ ran dry for another reason (trace end).
	StallFTQEmpty
)

var stallNames = [...]string{"none", "icache", "mispredict", "resteer", "backpressure", "ftq-empty"}

// String names the reason.
func (s StallReason) String() string {
	if int(s) < len(stallNames) {
		return stallNames[s]
	}
	return "stall(?)"
}

// Config holds the Table I core parameters.
type Config struct {
	FetchWidth  int // instructions per cycle
	FetchBytes  int // fetch bandwidth per cycle
	DecodeWidth int
	CommitWidth int
	ROBSize     int
	SchedSize   int
	LQSize      int
	SQSize      int
	DecodeQueue int
	// DecodeLat is the fetch-to-dispatch pipeline depth in cycles.
	DecodeLat uint64
	// RedirectLat is the extra redirect penalty after a mispredicted
	// branch executes.
	RedirectLat uint64
	// ResteerLat is the decode-resteer bubble length.
	ResteerLat uint64

	FTQ fdip.Config
}

// DefaultConfig mirrors Table I (4-wide, 224 ROB, 97 scheduler, 128/72
// LQ/SQ, 128-entry FTQ).
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		FetchBytes:  16,
		DecodeWidth: 4,
		CommitWidth: 4,
		ROBSize:     224,
		SchedSize:   97,
		LQSize:      128,
		SQSize:      72,
		DecodeQueue: 64,
		DecodeLat:   8,
		RedirectLat: 2,
		ResteerLat:  4,
		FTQ:         fdip.DefaultConfig(),
	}
}

// Stats accumulates the run's timing results.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	// Stalls[reason] counts fetch cycles delivering zero instructions.
	Stalls [6]uint64
	// Delivered counts instructions handed to decode.
	Delivered uint64
	Loads     uint64
	Stores    uint64
	Branches  uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// FrontEndStallFraction returns the fraction of cycles fetch was stalled
// on the instruction cache.
func (s Stats) FrontEndStallFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Stalls[StallICache]) / float64(s.Cycles)
}

// WheelSlots is the completion wheel's size. A power of two, so a
// completion cycle maps to its slot with a mask. A completion WheelSlots
// or more cycles after its dispatch waits on the far list instead.
const WheelSlots = 1024

// slot counts the dispatched instructions that complete in one cycle and
// the queue resources they hold.
type slot struct{ n, loads, stores int32 }

// farEntry is an instruction completing WheelSlots or more cycles ahead
// of its dispatch: a chain of DRAM-missing loads behind queued banks.
type farEntry struct {
	done            uint64
	isLoad, isStore bool
}

// occupancy maintains the scheduler/LQ/SQ occupancy incrementally: the
// totals rise at dispatch and fall when the clock reaches each
// instruction's completion cycle. A timing wheel indexed by
// done&(WheelSlots-1) holds the completions of the next WheelSlots
// cycles; expire reads one slot per cycle. Completion latency has no hard
// bound (dependent DRAM misses inherit their producers' ready times, and
// bank queueing adds more), so the rare completion beyond the wheel waits
// on the far list until the lap that contains it. The totals are, by
// construction, exactly |{e in ROB : e.Done >= Clock}| split by class:
// derived state, which Core.Rebuild recomputes from the ROB rather than
// the checkpoint carrying it.
type occupancy struct {
	wheel                [WheelSlots]slot
	far                  []farEntry
	sched, loads, stores int
}

// b2i converts without a branch.
//
//ubs:hotpath
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// add registers an instruction dispatched at now and completing at done.
//
//ubs:hotpath
func (o *occupancy) add(now, done uint64, isLoad, isStore bool) {
	o.sched++
	o.loads += int(b2i(isLoad))
	o.stores += int(b2i(isStore))
	if done-now >= WheelSlots {
		//ubs:allowalloc far is pre-sized to ROBSize, which bounds the in-flight instructions
		o.far = append(o.far, farEntry{done: done, isLoad: isLoad, isStore: isStore})
		return
	}
	o.place(done, isLoad, isStore)
}

// place counts an instruction on the wheel slot of its completion cycle.
//
//ubs:hotpath
func (o *occupancy) place(done uint64, isLoad, isStore bool) {
	s := &o.wheel[done&(WheelSlots-1)]
	s.n++
	s.loads += b2i(isLoad)
	s.stores += b2i(isStore)
}

// expire releases every instruction completing at now. It must be called
// once per cycle, in cycle order: each slot is read exactly when the
// clock reaches it. At a lap boundary the far entries that complete
// within the new lap move onto the wheel first.
//
//ubs:hotpath
func (o *occupancy) expire(now uint64) {
	if now&(WheelSlots-1) == 0 && len(o.far) > 0 {
		o.migrate(now)
	}
	s := &o.wheel[now&(WheelSlots-1)]
	o.sched -= int(s.n)
	o.loads -= int(s.loads)
	o.stores -= int(s.stores)
	*s = slot{}
}

// migrate moves onto the wheel every far entry completing in the lap
// [now, now+WheelSlots). An entry goes far only when it completes
// WheelSlots or more cycles after the cycle that adds it, so it is never
// behind the next lap boundary.
//
//ubs:hotpath
func (o *occupancy) migrate(now uint64) {
	for i := 0; i < len(o.far); {
		f := o.far[i]
		if f.done-now >= WheelSlots {
			i++
			continue
		}
		o.place(f.done, f.isLoad, f.isStore)
		last := len(o.far) - 1
		o.far[i] = o.far[last]
		o.far = o.far[:last]
	}
}

// Core wires the front end, the backend, and the memory system.
type Core struct {
	cfg Config
	ftq *fdip.FTQ
	ic  icache.Frontend
	dc  *mem.DataCache

	st   State
	busy occupancy
}

// New wires a core. dc may be nil (no data-side modelling).
func New(cfg Config, ftq *fdip.FTQ, ic icache.Frontend, dc *mem.DataCache) *Core {
	if cfg.FetchWidth == 0 {
		cfg = DefaultConfig()
	}
	c := &Core{
		cfg: cfg, ftq: ftq, ic: ic, dc: dc,
		st: State{
			ROB: make([]ROBEntry, cfg.ROBSize),
			// The decode FIFO's backing array covers its worst-case
			// occupancy (fetch stops pushing at DecodeQueue, plus one
			// in-flight fetch chunk), so pushDecode's compact-in-place
			// keeps every steady-state push within this capacity — the
			// queue never reallocates.
			Decode: make([]DecodeItem, 0, cfg.DecodeQueue+cfg.FetchWidth),
		},
	}
	c.busy.far = make([]farEntry, 0, cfg.ROBSize)
	return c
}

// Stats returns the accumulated statistics.
func (c *Core) Stats() Stats { return c.st.Stats }

// ResetStats clears timing statistics (end of warmup) without touching
// microarchitectural state or the monotonic clock.
func (c *Core) ResetStats() { c.st.Stats = Stats{} }

// Clock returns the monotonic cycle count since construction.
func (c *Core) Clock() uint64 { return c.st.Clock }

// Cycle advances the model by one clock.
//
//ubs:hotpath
func (c *Core) Cycle() {
	now := c.st.Clock
	c.busy.expire(now)
	c.commit(now)
	c.dispatch(now)
	c.fetch(now)
	c.ftq.Fill(now)
	c.resolveRedirect(now)
	c.st.Clock++
	c.st.Stats.Cycles++
}

// Run executes until n instructions retire (or the trace ends). It
// returns false if the trace ended first.
func (c *Core) Run(n uint64) bool {
	target := c.st.Stats.Instructions + n
	for c.st.Stats.Instructions < target {
		if c.ftq.SourceDone() && c.ftq.Len() == 0 && c.st.ROBCount == 0 && c.decodeLen() == 0 {
			return false
		}
		c.Cycle()
	}
	return true
}

// RunUntil executes until instructions have retired or the cycle counter
// reaches cycleCeil, whichever comes first (both measured from the last
// stats reset, like Stats itself). It lets callers chop a long run into
// cycle-bounded slices — the heartbeat/cancellation windows of package
// sim — and returns false if the trace ended first.
func (c *Core) RunUntil(instructions, cycleCeil uint64) bool {
	for c.st.Stats.Instructions < instructions && c.st.Stats.Cycles < cycleCeil {
		if c.ftq.SourceDone() && c.ftq.Len() == 0 && c.st.ROBCount == 0 && c.decodeLen() == 0 {
			return false
		}
		c.Cycle()
	}
	return true
}

// commit retires completed instructions in order.
//
//ubs:hotpath
func (c *Core) commit(now uint64) {
	for n := 0; n < c.cfg.CommitWidth && c.st.ROBCount > 0; n++ {
		e := &c.st.ROB[c.st.ROBHead]
		if e.Done > now {
			return
		}
		c.st.Stats.Instructions++
		// Compare-and-subtract: ROBSize is not a power of two, and a
		// modulo would divide on every retired instruction.
		c.st.ROBHead++
		if c.st.ROBHead == c.cfg.ROBSize {
			c.st.ROBHead = 0
		}
		c.st.ROBCount--
	}
}

// decodeLen returns the decode-queue occupancy.
func (c *Core) decodeLen() int { return len(c.st.Decode) - c.st.DecodeHead }

// pushDecode enqueues d. When the buffer runs out of spare capacity it
// compacts the live window to the front instead of growing, so the
// steady-state fetch/dispatch cycle never reallocates.
//
//ubs:hotpath
func (c *Core) pushDecode(d DecodeItem) {
	if c.st.DecodeHead > 0 && len(c.st.Decode) == cap(c.st.Decode) {
		n := copy(c.st.Decode, c.st.Decode[c.st.DecodeHead:])
		c.st.Decode = c.st.Decode[:n]
		c.st.DecodeHead = 0
	}
	//ubs:allowalloc compact-in-place above keeps this push within capacity at steady state
	c.st.Decode = append(c.st.Decode, d)
}

// popDecode drops the queue head, rewinding to the start of the backing
// array whenever the queue drains.
//
//ubs:hotpath
func (c *Core) popDecode() {
	c.st.DecodeHead++
	if c.st.DecodeHead == len(c.st.Decode) {
		c.st.Decode = c.st.Decode[:0]
		c.st.DecodeHead = 0
	}
}

// dispatch moves instructions from the decode queue into the ROB,
// computing their completion times. Scheduler/LQ/SQ occupancy comes from
// the incrementally maintained counters in c.busy (expired at the top of
// Cycle), not from scanning the ROB.
//
//ubs:hotpath
func (c *Core) dispatch(now uint64) {
	if c.decodeLen() == 0 {
		return
	}
	width := c.cfg.DecodeWidth
	for width > 0 && c.decodeLen() > 0 && c.st.ROBCount < c.cfg.ROBSize {
		d := &c.st.Decode[c.st.DecodeHead]
		if d.ReadyAt > now || c.busy.sched >= c.cfg.SchedSize {
			return
		}
		in := &d.Item.In
		if in.Class == trace.ClassLoad && c.busy.loads >= c.cfg.LQSize {
			return
		}
		if in.Class == trace.ClassStore && c.busy.stores >= c.cfg.SQSize {
			return
		}
		// Operand readiness from producer distances.
		ready := now
		for _, dep := range [2]uint16{in.Dep1, in.Dep2} {
			if dep == 0 || uint64(dep) > c.st.Seq {
				continue
			}
			if uint64(dep) >= uint64(len(c.st.DoneRing)) {
				continue
			}
			pd := c.st.DoneRing[(c.st.Seq-uint64(dep))%uint64(len(c.st.DoneRing))]
			if pd > ready {
				ready = pd
			}
		}
		var done uint64
		ctx := cache.AccessContext{PC: in.PC, Cycle: now}
		switch in.Class {
		case trace.ClassLoad:
			if c.dc != nil {
				dl, ok := c.dc.Load(in.MemAddr, ready, ctx)
				if !ok {
					return // L1-D MSHRs full: retry next cycle
				}
				done = dl
			} else {
				done = ready + 5
			}
			c.st.Stats.Loads++
		case trace.ClassStore:
			if c.dc != nil && !c.dc.Store(in.MemAddr, ready, ctx) {
				return
			}
			done = ready + 1
			c.st.Stats.Stores++
		default:
			done = ready + 1
			if in.Class.IsBranch() {
				c.st.Stats.Branches++
			}
		}
		if done <= now {
			done = now + 1
		}
		tail := c.st.ROBHead + c.st.ROBCount
		if tail >= c.cfg.ROBSize {
			tail -= c.cfg.ROBSize
		}
		e := &c.st.ROB[tail]
		*e = ROBEntry{
			Done:       done,
			Seq:        c.st.Seq,
			IsLoad:     in.Class == trace.ClassLoad,
			IsStore:    in.Class == trace.ClassStore,
			Mispredict: d.Item.Mispredict,
		}
		c.st.DoneRing[c.st.Seq%uint64(len(c.st.DoneRing))] = done
		c.st.Seq++
		c.st.ROBCount++
		c.busy.add(now, done, e.IsLoad, e.IsStore)
		if d.Item.Mispredict {
			// The redirect reaches fetch when the branch executes.
			c.st.RedirectAt = done + c.cfg.RedirectLat
		}
		c.popDecode()
		width--
	}
}

// resolveRedirect unblocks the front end once a mispredicted branch has
// executed.
func (c *Core) resolveRedirect(now uint64) {
	if c.st.WaitMispredict && c.st.RedirectAt != 0 && now >= c.st.RedirectAt {
		c.st.WaitMispredict = false
		c.st.RedirectAt = 0
		c.ftq.Resume()
	}
}

// fetch builds one fetch chunk from the FTQ head and probes the L1-I.
// A chunk is a run of consecutive instructions limited by fetch width,
// fetch bytes, a 64B block boundary, and the first taken branch — exactly
// the fetch-range interface of §IV-A.
//
//ubs:hotpath
func (c *Core) fetch(now uint64) {
	if c.st.FetchBlocked > now {
		c.stall(c.st.BlockReason)
		return
	}
	if c.st.WaitMispredict {
		c.stall(StallMispredict)
		return
	}
	head := c.ftq.Peek(0)
	if head == nil {
		if c.ftq.SourceDone() {
			c.stall(StallFTQEmpty)
		} else {
			// The runahead could not keep up this cycle (it fills after
			// fetch); charge it as an FTQ bubble.
			c.stall(StallFTQEmpty)
		}
		return
	}
	if c.decodeLen() >= c.cfg.DecodeQueue {
		c.stall(StallBackpressure)
		return
	}
	// Build the chunk.
	start := head.In.PC
	block := start &^ 63
	bytes := 0
	count := 0
	endsMispredict, endsResteer := false, false
	for count < c.cfg.FetchWidth {
		it := c.ftq.Peek(count)
		if it == nil {
			break
		}
		pc := it.In.PC
		if count > 0 {
			prev := c.ftq.Peek(count - 1)
			if pc != prev.In.EndPC() {
				break // redirect boundary (should coincide with taken branch)
			}
		}
		if pc&^63 != block {
			break // never cross a 64B block in one access
		}
		if count > 0 && bytes+int(it.In.Size) > c.cfg.FetchBytes {
			// A single instruction wider than the fetch bandwidth (possible
			// only on variable-length ISAs) still fetches alone.
			break
		}
		bytes += int(it.In.Size)
		count++
		if it.Mispredict {
			endsMispredict = true
			break
		}
		if it.Resteer {
			endsResteer = true
			break
		}
		if it.In.TakenBranch() {
			break
		}
	}
	if count == 0 {
		c.stall(StallFTQEmpty)
		return
	}
	r := c.fetchRange(start, bytes, now)
	switch {
	case r.Kind == icache.Hit:
		for i := 0; i < count; i++ {
			it := c.ftq.Peek(i)
			c.pushDecode(DecodeItem{
				Item:    *it,
				ReadyAt: now + c.ic.Latency() + c.cfg.DecodeLat,
			})
		}
		c.ftq.Pop(count)
		c.st.Stats.Delivered += uint64(count)
		if endsMispredict {
			c.st.WaitMispredict = true
		}
		if endsResteer {
			c.st.FetchBlocked = now + c.cfg.ResteerLat
			c.st.BlockReason = StallResteer
		}
	case !r.Issued:
		// MSHR full: retry next cycle; this is an instruction-supply stall.
		c.stall(StallICache)
	default:
		c.st.FetchBlocked = r.Complete
		c.st.BlockReason = StallICache
		c.stall(StallICache)
	}
}

// fetchRange probes the L1-I for [start, start+bytes), splitting at 64B
// block boundaries (variable-length instructions may straddle blocks; each
// probe stays within one block per the frontend contract). The combined
// result hits only if every piece hits; otherwise the first non-hit piece
// governs the stall.
//
//ubs:hotpath
func (c *Core) fetchRange(start uint64, bytes int, now uint64) icache.Result {
	end := start + uint64(bytes)
	for addr := start; addr < end; {
		blockEnd := (addr &^ 63) + 64
		n := int(end - addr)
		if blockEnd < end {
			n = int(blockEnd - addr)
		}
		r := c.ic.Fetch(addr, n, now)
		if r.Kind != icache.Hit {
			return r
		}
		addr += uint64(n)
	}
	return icache.Result{Kind: icache.Hit}
}

//ubs:hotpath
func (c *Core) stall(r StallReason) {
	c.st.Stats.Stalls[r]++
}

// Rebuild recomputes the scheduler/LQ/SQ occupancy from the ROB and the
// clock: every live entry with Done >= Clock is still in flight.
// sim.Machine.Restore calls it after installing restored state, before
// Validate.
func (c *Core) Rebuild() {
	c.busy.wheel = [WheelSlots]slot{}
	c.busy.far = c.busy.far[:0]
	c.busy.sched, c.busy.loads, c.busy.stores = 0, 0, 0
	if c.st.ROBHead < 0 || c.st.ROBHead >= c.cfg.ROBSize || c.st.ROBCount < 0 || c.st.ROBCount > c.cfg.ROBSize {
		return // Validate reports the bad ring
	}
	for i := 0; i < c.st.ROBCount; i++ {
		e := &c.st.ROB[(c.st.ROBHead+i)%c.cfg.ROBSize]
		if e.Done >= c.st.Clock {
			c.busy.add(c.st.Clock, e.Done, e.IsLoad, e.IsStore)
		}
	}
}

// maxInFlight bounds how many cycles past the clock a live ROB entry
// can complete. An instruction completes one access after its operands
// are ready: a load's L1-D latency plus the hierarchy's worst case
// (mem.Hierarchy.WorstLatency), 5 cycles without a data cache, 1 for
// anything else. Its operands wait only on producers still in the ROB,
// because a producer retires only once it has completed. So a
// dependence chain runs through at most ROBSize entries, and none
// completes more than ROBSize worst-case accesses after the cycle the
// chain started, which is before the clock. Restored state beyond the
// bound did not come from a run: the ROB head would never complete and
// retirement would stall forever.
func (c *Core) maxInFlight() uint64 {
	access := uint64(5)
	if c.dc != nil {
		access = max(access, c.dc.Lat+c.dc.H.WorstLatency())
	}
	return uint64(c.cfg.ROBSize) * access
}

// Validate checks internal consistency: the ROB and decode-queue heads
// index their buffers, no live ROB entry completes further past the
// clock than a run can schedule it (maxInFlight), and the occupancy
// totals match a recount of the in-flight ROB entries.
// sim.Machine.Restore calls it on restored state; tests call it after
// runs.
func (c *Core) Validate() error {
	if c.st.ROBCount < 0 || c.st.ROBCount > c.cfg.ROBSize {
		return fmt.Errorf("core: ROB count %d out of range", c.st.ROBCount)
	}
	if c.st.ROBHead < 0 || c.st.ROBHead >= c.cfg.ROBSize {
		return fmt.Errorf("core: ROB head %d out of range [0, %d)", c.st.ROBHead, c.cfg.ROBSize)
	}
	if c.st.DecodeHead < 0 || c.st.DecodeHead > len(c.st.Decode) {
		return fmt.Errorf("core: decode head %d out of range [0, %d]", c.st.DecodeHead, len(c.st.Decode))
	}
	var rob slot
	horizon := c.maxInFlight()
	for i := 0; i < c.st.ROBCount; i++ {
		e := &c.st.ROB[(c.st.ROBHead+i)%c.cfg.ROBSize]
		if e.Done > c.st.Clock && e.Done-c.st.Clock > horizon {
			return fmt.Errorf("core: ROB entry %d completes at cycle %d, more than %d cycles past the clock (%d)",
				e.Seq, e.Done, horizon, c.st.Clock)
		}
		if e.Done >= c.st.Clock {
			rob.n++
			rob.loads += b2i(e.IsLoad)
			rob.stores += b2i(e.IsStore)
		}
	}
	if c.busy.sched != int(rob.n) || c.busy.loads != int(rob.loads) || c.busy.stores != int(rob.stores) {
		return fmt.Errorf("core: in-flight sched/loads/stores %d/%d/%d, ROB recount %d/%d/%d",
			c.busy.sched, c.busy.loads, c.busy.stores, rob.n, rob.loads, rob.stores)
	}
	return nil
}
