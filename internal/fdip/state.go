package fdip

import "fmt"

// State is the FTQ's mutable state: the queue with its head index, the
// absolute walk counters, and the walker flags. EnqueuedTot doubles as
// the trace replay cursor — it counts exactly the successful src.Next()
// calls, so a restored machine fast-forwards a fresh source by that many
// instructions to land on the same next instruction.
//
//ubs:state
type State struct {
	// Queue is a head-indexed FIFO: Queue[Head:] is live. Its backing
	// array is allocated once, at construction.
	Queue   []Item `snap:"queue"`
	Head    int
	Regions int

	// Absolute item counters for the prefetch window.
	ConsumedTot uint64
	EnqueuedTot uint64
	PrefCursor  uint64

	// Blocked: a mispredicted branch was enqueued; the runahead halts
	// until Resume.
	Blocked bool
	// SourceDone: the trace ended.
	SourceDone bool

	Stats Stats
}

// State returns the FTQ's live state. A restore leaves positioning the
// trace source at instruction EnqueuedTot to the caller (see
// sim.Machine.Restore).
func (f *FTQ) State() *State { return &f.st }

// Validate checks that the queue head indexes the queue. A restored state
// that fails it would panic at the next push or Pop.
func (f *FTQ) Validate() error {
	if f.st.Head < 0 || f.st.Head > len(f.st.Queue) {
		return fmt.Errorf("fdip: queue head %d out of range [0, %d]", f.st.Head, len(f.st.Queue))
	}
	return nil
}
