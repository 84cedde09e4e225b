package runner

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"ubscache/internal/checkpoint"
	"ubscache/internal/exp"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

func ckTestParams() sim.Params {
	p := sim.DefaultParams()
	p.Warmup = 5_000
	p.Measure = 20_000
	p.SampleInterval = 2_000
	return p
}

// TestStoreCheckpointedRun pins the crash-safe sweep path end to end: a
// killed run leaves a checkpoint behind, a retrying Store resumes it
// instead of recomputing, the final result is byte-identical to an
// uninterrupted run, and success cleans the checkpoint up.
func TestStoreCheckpointedRun(t *testing.T) {
	p := ckTestParams()
	w, err := workloadspec.ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.ParseDesign("ubs")
	if err != nil {
		t.Fatal(err)
	}

	ref, err := workloadspec.Run(context.Background(), p, w, "ubs", d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s := NewStore(dir)
	s.CheckpointEvery = 4_000
	pt := exp.SimPoint{Params: p, Workload: w, Design: "ubs", Factory: d.Factory}
	key := Key(pt)

	// Simulate a crash: drive part of the run, persisting checkpoints,
	// then abandon it mid-measure. The design string "ubs" is
	// ParseDesign-able, so the retry below can resume it.
	hb := p
	hb.HeartbeatEvery = 500
	ctx, cancel := context.WithCancel(context.Background())
	src, err := w.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMachine(ctx, hb, src, w.Name, "ubs", d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	meta := checkpoint.Meta{Workload: w.Spec, WorkloadName: w.Name, Design: "ubs", Params: p}
	_, err = checkpoint.Complete(m, meta, s.CheckpointEvery, func(data []byte) error {
		cancel()
		return writeFileAtomic(s.ckPath(key), data)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := os.Stat(s.ckPath(key)); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}

	// The retrying Store resumes from the checkpoint and converges to
	// the uninterrupted result.
	res, _, err := s.Run(context.Background(), pt)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed sweep point diverged:\n got:  %s\n want: %s", got, want)
	}
	if _, err := os.Stat(s.ckPath(key)); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after success (err=%v)", err)
	}

	// And the result was persisted to the ordinary disk cache.
	if _, _, ok := s.loadDisk(key); !ok {
		t.Error("result missing from disk cache after checkpointed run")
	}
}

// TestStoreCheckpointedFresh pins that checkpointing changes nothing
// when no checkpoint exists: same bytes as a plain run.
func TestStoreCheckpointedFresh(t *testing.T) {
	p := ckTestParams()
	w, err := workloadspec.ParseWorkload("client_001")
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.ParseDesign("conv:32")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := workloadspec.Run(context.Background(), p, w, "conv:32", d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref)

	s := NewStore(t.TempDir())
	s.CheckpointEvery = 7_000
	pt := exp.SimPoint{Params: p, Workload: w, Design: "conv:32", Factory: d.Factory}
	res, _, err := s.Run(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	if string(got) != string(want) {
		t.Errorf("checkpointed fresh run diverged:\n got:  %s\n want: %s", got, want)
	}
	if _, err := os.Stat(s.ckPath(Key(pt))); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after success (err=%v)", err)
	}
}

// TestStoreCorruptCheckpointFallsBack pins that a damaged checkpoint is
// discarded and the point recomputed from scratch, not failed.
func TestStoreCorruptCheckpointFallsBack(t *testing.T) {
	p := ckTestParams()
	w, err := workloadspec.ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.ParseDesign("conv:32")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(t.TempDir())
	s.CheckpointEvery = 7_000
	pt := exp.SimPoint{Params: p, Workload: w, Design: "conv:32", Factory: d.Factory}
	if err := os.WriteFile(s.ckPath(Key(pt)), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Run(context.Background(), pt)
	if err != nil {
		t.Fatalf("corrupt checkpoint should fall back, got %v", err)
	}
	if res.Core.Instructions < p.Measure {
		t.Errorf("fresh fallback ran %d < %d instructions", res.Core.Instructions, p.Measure)
	}
}

// TestStoreOldVersionCheckpointFallsBack pins that a checkpoint from an
// older layout (version 2, which still carried the core's completion
// heap) is rejected on its version and the point recomputed from
// scratch, byte-identical to a run that never saw it.
func TestStoreOldVersionCheckpointFallsBack(t *testing.T) {
	p := ckTestParams()
	w, err := workloadspec.ParseWorkload("server_001")
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.ParseDesign("conv:32")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := workloadspec.Run(context.Background(), p, w, "conv:32", d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref)

	s := NewStore(t.TempDir())
	s.CheckpointEvery = 7_000
	pt := exp.SimPoint{Params: p, Workload: w, Design: "conv:32", Factory: d.Factory}
	src, err := w.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMachine(context.Background(), p, src, w.Name, "conv:32", d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	meta := checkpoint.Meta{Workload: w.Spec, WorkloadName: w.Name, Design: "conv:32", Params: p}
	errStop := errors.New("stop after the first checkpoint")
	_, err = checkpoint.Complete(m, meta, s.CheckpointEvery, func(data []byte) error {
		// Relabel the image as version 2 and reseal its trailing CRC, so
		// only the version is wrong.
		binary.LittleEndian.PutUint16(data[4:], 2)
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		if werr := writeFileAtomic(s.ckPath(Key(pt)), data); werr != nil {
			return werr
		}
		return errStop
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("want the stop sentinel, got %v", err)
	}
	if _, _, err := checkpoint.Read(s.ckPath(Key(pt))); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("version-2 checkpoint: got %v, want the version error", err)
	}
	res, _, err := s.Run(context.Background(), pt)
	if err != nil {
		t.Fatalf("version-2 checkpoint should fall back, got %v", err)
	}
	if got, _ := json.Marshal(res); string(got) != string(want) {
		t.Errorf("fresh fallback diverged:\n got:  %s\n want: %s", got, want)
	}
}
