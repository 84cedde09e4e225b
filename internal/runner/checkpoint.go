package runner

import (
	"context"
	"os"
	"path/filepath"

	"ubscache/internal/checkpoint"
	"ubscache/internal/exp"
	"ubscache/internal/sim"
)

// ckPath is the checkpoint file for a simulation point, keyed by the
// same content hash as its result cache entry: equal keys denote equal
// simulations, so a checkpoint written by one process is safe for any
// other process computing the same point to resume from.
func (s *Store) ckPath(key string) string { return filepath.Join(s.Dir, key+".ubsc") }

// runCheckpointed computes one simulation point with crash-safe
// checkpointing: a checkpoint is written every CheckpointEvery measured
// instructions (atomic rename, so a kill mid-write never corrupts the
// previous one), and an existing checkpoint for the key is resumed
// instead of recomputing from scratch. Any problem with the checkpoint
// file — corrupted, truncated, written by an older layout version —
// falls back to a fresh run; checkpoints are restart accelerators, not
// sources of truth. On success the checkpoint is removed (the result
// cache entry supersedes it); on error it is kept so a retried sweep
// resumes from where this attempt stopped.
func (s *Store) runCheckpointed(ctx context.Context, key string, pt exp.SimPoint) (sim.Result, error) {
	ckpath := s.ckPath(key)
	p, w := pt.Params, pt.Workload
	meta := checkpoint.Meta{Workload: w.Spec, WorkloadName: w.Name, Design: pt.Design, Params: p}
	save := func(data []byte) error { return writeFileAtomic(ckpath, data) }

	if r, err := checkpoint.Resume(ctx, ckpath, checkpoint.ResumeOptions{
		Observer:       p.Observer,
		HeartbeatEvery: p.HeartbeatEvery,
	}); err == nil {
		defer r.Close()
		res, rerr := checkpoint.Complete(r.Machine, r.Meta, s.CheckpointEvery, save)
		if rerr == nil {
			os.Remove(ckpath)
		}
		return res, rerr
	} else if !os.IsNotExist(err) {
		// A checkpoint existed but could not be resumed; recompute from
		// scratch rather than fail the point.
		os.Remove(ckpath)
	}

	src, err := w.NewSource()
	if err != nil {
		return sim.Result{}, err
	}
	if c, ok := src.(interface{ Close() error }); ok {
		defer c.Close()
	}
	m, err := sim.NewMachine(ctx, p, src, w.Name, pt.Design, pt.Factory)
	if err != nil {
		return sim.Result{}, err
	}
	res, err := checkpoint.Complete(m, meta, s.CheckpointEvery, save)
	if err == nil {
		os.Remove(ckpath)
	}
	return res, err
}
