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

// add registers a dispatched instruction completing at done.
//
//ubs:hotpath
func (f *Inflight) add(done uint64, isLoad, isStore bool) {
	f.Sched++
	if isLoad {
		f.Loads++
	}
	if isStore {
		f.Stores++
	}
	//ubs:allowalloc the heap's backing array is pre-sized to ROBSize at construction
	f.Heap = append(f.Heap, InflightEntry{Done: done, IsLoad: isLoad, IsStore: isStore})
	i := len(f.Heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if f.Heap[p].Done <= f.Heap[i].Done {
			break
		}
		f.Heap[p], f.Heap[i] = f.Heap[i], f.Heap[p]
		i = p
	}
}

// expire releases every instruction whose completion cycle has been
// reached. Amortised O(1) per cycle: each dispatched instruction is popped
// exactly once.
//
//ubs:hotpath
func (f *Inflight) expire(now uint64) {
	for len(f.Heap) > 0 && f.Heap[0].Done <= now {
		e := f.Heap[0]
		f.Sched--
		if e.IsLoad {
			f.Loads--
		}
		if e.IsStore {
			f.Stores--
		}
		n := len(f.Heap) - 1
		f.Heap[0] = f.Heap[n]
		f.Heap = f.Heap[:n]
		i := 0
		for {
			l, r, s := 2*i+1, 2*i+2, i
			if l < n && f.Heap[l].Done < f.Heap[s].Done {
				s = l
			}
			if r < n && f.Heap[r].Done < f.Heap[s].Done {
				s = r
			}
			if s == i {
				break
			}
			f.Heap[i], f.Heap[s] = f.Heap[s], f.Heap[i]
			i = s
		}
	}
}

// Core wires the front end, the backend, and the memory system.
type Core struct {
	cfg Config
	ftq *fdip.FTQ
	ic  icache.Frontend
	dc  *mem.DataCache

	st State
}

// New wires a core. dc may be nil (no data-side modelling).
func New(cfg Config, ftq *fdip.FTQ, ic icache.Frontend, dc *mem.DataCache) *Core {
	if cfg.FetchWidth == 0 {
		cfg = DefaultConfig()
	}
	return &Core{
		cfg: cfg, ftq: ftq, ic: ic, dc: dc,
		st: State{
			ROB: make([]ROBEntry, cfg.ROBSize),
			// The decode FIFO's backing array covers its worst-case
			// occupancy (fetch stops pushing at DecodeQueue, plus one
			// in-flight fetch chunk), so pushDecode's compact-in-place
			// keeps every steady-state push within this capacity — the
			// queue never reallocates.
			Decode: make([]DecodeItem, 0, cfg.DecodeQueue+cfg.FetchWidth),
			Busy:   Inflight{Heap: make([]InflightEntry, 0, cfg.ROBSize)},
		},
	}
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
	c.st.Busy.expire(now)
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
		c.st.ROBHead = (c.st.ROBHead + 1) % c.cfg.ROBSize
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
// the incrementally maintained counters in c.st.Busy (expired at the top of
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
		if d.ReadyAt > now || c.st.Busy.Sched >= c.cfg.SchedSize {
			return
		}
		in := &d.Item.In
		if in.Class == trace.ClassLoad && c.st.Busy.Loads >= c.cfg.LQSize {
			return
		}
		if in.Class == trace.ClassStore && c.st.Busy.Stores >= c.cfg.SQSize {
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
		e := &c.st.ROB[(c.st.ROBHead+c.st.ROBCount)%c.cfg.ROBSize]
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
		c.st.Busy.add(done, e.IsLoad, e.IsStore)
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

// Validate checks internal consistency, including that the ROB and
// decode-queue heads index their buffers. sim.Machine.Restore calls it on
// restored state; tests call it after runs.
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
	if c.st.Busy.Sched != len(c.st.Busy.Heap) {
		return fmt.Errorf("core: inflight count %d disagrees with heap size %d",
			c.st.Busy.Sched, len(c.st.Busy.Heap))
	}
	if cap(c.st.Busy.Heap) != c.cfg.ROBSize {
		return fmt.Errorf("core: inflight heap capacity %d, want ROB size %d",
			cap(c.st.Busy.Heap), c.cfg.ROBSize)
	}
	loads, stores := 0, 0
	for i := range c.st.Busy.Heap {
		if c.st.Busy.Heap[i].IsLoad {
			loads++
		}
		if c.st.Busy.Heap[i].IsStore {
			stores++
		}
	}
	if loads != c.st.Busy.Loads || stores != c.st.Busy.Stores {
		return fmt.Errorf("core: inflight load/store counters %d/%d disagree with heap %d/%d",
			c.st.Busy.Loads, c.st.Busy.Stores, loads, stores)
	}
	if c.st.Busy.Sched > c.st.ROBCount {
		return fmt.Errorf("core: %d in-flight instructions exceed ROB occupancy %d",
			c.st.Busy.Sched, c.st.ROBCount)
	}
	return nil
}
