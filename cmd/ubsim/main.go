// Command ubsim runs one workload on one instruction-cache design and
// prints the detailed result: IPC, MPKI, stall attribution, storage
// efficiency, and (for UBS) the partial-miss taxonomy.
//
//	ubsim -workload server_003 -design ubs
//	ubsim -workload client_001 -design conv:64 -measure 10000000
//	ubsim -workload mix:examples/specs/clients.yaml -design ubs
//	ubsim -workload champsim:trace.champsim.gz -design conv:64
//	ubsim -trace dump.ubst.gz -design ghrp
//
// Designs are resolved through the sim design registry (sim.ParseDesign):
// conv:<KB>, ubs, ubs:<KB>, smallblock16, smallblock32, smallblock64,
// distill, ghrp, acic, the predictor/way variants ubs-pred-<name> and
// ubs-<N>way-c<V>, or an inline JSON spec such as
// '{"kind":"ubs","config":{"kb":64}}'.
//
// Workloads are resolved through the symmetric workload registry
// (workloadspec.ParseWorkload): a bare preset name, preset:<name>,
// mix:<file.yaml|json>, champsim:<trace[.gz]>, trace:<file.ubst[.gz]>, or
// an inline JSON spec such as '{"kind":"preset","config":{"name":"x"}}'.
//
// Observability: -stats-json streams NDJSON heartbeat records (plus a
// final manifest) to a file; -http serves live metrics (Prometheus text at
// /metrics, JSON at /vars) while the run is in flight; -hb sets the
// heartbeat period in cycles. SIGINT/SIGTERM cancel the run cleanly at the
// next heartbeat, flushing the manifest with the partial state.
//
// Checkpointing: -checkpoint-every N writes a resumable checkpoint to
// -checkpoint-dir every N measured instructions (and once more on
// SIGINT/SIGTERM); -resume FILE rebuilds the machine from a checkpoint
// in a fresh process and runs it to completion, with final stats
// byte-identical to the uninterrupted run:
//
//	ubsim -workload server_003 -design ubs -checkpoint-every 1000000
//	ubsim -resume server_003-ubs.ubsc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"ubscache/internal/checkpoint"
	"ubscache/internal/core"
	"ubscache/internal/icache"
	"ubscache/internal/obs"
	"ubscache/internal/sim"
	"ubscache/internal/stats"
	"ubscache/internal/trace"
	"ubscache/internal/workloadspec"
)

func main() {
	os.Exit(run())
}

// run carries the real main so deferred writers (profiles, the NDJSON
// stream, the metrics server) fire before exit.
func run() int {
	var (
		wl        = flag.String("workload", "server_001", "workload shorthand: preset name, preset:<name>, mix:<file>, champsim:<trace>, trace:<file>, or inline JSON spec")
		traceFile = flag.String("trace", "", "simulate a UBST trace file instead of a synthetic workload")
		design    = flag.String("design", "ubs", "instruction cache design")
		warmup    = flag.Uint64("warmup", 0, "warmup instructions (0 = default)")
		measure   = flag.Uint64("measure", 0, "measured instructions (0 = default)")
		statsJSON = flag.String("stats-json", "", "stream NDJSON heartbeat records and a final manifest to this file")
		httpAddr  = flag.String("http", "", "serve live metrics over HTTP at this address (e.g. :8080; /metrics, /vars)")
		hbEvery   = flag.Uint64("hb", 0, "heartbeat period in cycles (0 = the sampling interval)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		ckEvery   = flag.Uint64("checkpoint-every", 0, "write a resumable checkpoint every N measured instructions (0 = off)")
		ckDir     = flag.String("checkpoint-dir", ".", "directory for checkpoint files written by -checkpoint-every")
		resume    = flag.String("resume", "", "resume a run from this checkpoint file instead of starting fresh")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	d, err := sim.ParseDesign(*design)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	params := sim.DefaultParams()
	if *warmup > 0 {
		params.Warmup = *warmup
	}
	if *measure > 0 {
		params.Measure = *measure
	}
	params.HeartbeatEvery = *hbEvery

	var observers obs.Observers
	if *statsJSON != "" {
		f, err := os.Create(*statsJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		observers = append(observers, obs.NewNDJSON(f))
	}
	if *httpAddr != "" {
		srv := obs.NewServer()
		addr, stopSrv, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "ubsim: serving metrics on http://%s/metrics\n", addr)
		observers = append(observers, srv)
	}
	if len(observers) > 0 {
		params.Observer = observers
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *resume != "" {
		// A checkpoint file is self-describing (workload, design, params);
		// only the observer wiring and checkpoint cadence come from flags.
		r, err := checkpoint.Resume(ctx, *resume, checkpoint.ResumeOptions{
			Observer:       params.Observer,
			HeartbeatEvery: *hbEvery,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer r.Close()
		fmt.Fprintf(os.Stderr, "ubsim: resuming %s on %s at instruction %d\n",
			r.Meta.WorkloadName, r.Meta.Design, r.Meta.Instructions)
		save := func([]byte) error { return nil }
		if *ckEvery > 0 {
			save = func(data []byte) error { return checkpoint.WriteFileAtomic(*resume, data) }
		}
		res, err := checkpoint.Complete(r.Machine, r.Meta, *ckEvery, save)
		if err != nil {
			return reportRunErr(err, *statsJSON)
		}
		printResult(res)
		return 0
	}

	var res sim.Result
	if *traceFile != "" {
		if *ckEvery > 0 {
			fmt.Fprintln(os.Stderr, "ubsim: -checkpoint-every needs a restartable workload; use -workload trace:FILE instead of -trace")
			return 2
		}
		r, err := trace.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer r.Close()
		res, err = sim.Run(ctx, params, r, *traceFile, d.Name, d.Factory)
		if err != nil {
			return reportRunErr(err, *statsJSON)
		}
	} else {
		w, err := workloadspec.ParseWorkload(*wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if *ckEvery > 0 {
			ckPath := filepath.Join(*ckDir, sanitize(*wl)+"-"+sanitize(*design)+".ubsc")
			fmt.Fprintf(os.Stderr, "ubsim: checkpointing every %d instructions to %s\n", *ckEvery, ckPath)
			src, err := w.NewSource()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if c, ok := src.(interface{ Close() error }); ok {
				defer c.Close()
			}
			m, err := sim.NewMachine(ctx, params, src, w.Name, d.Name, d.Factory)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			meta := checkpoint.Meta{Workload: w.Spec, WorkloadName: w.Name, Design: *design, Params: params}
			// The checkpoint is kept after success so a longer follow-up run
			// (or the CI smoke test) can still resume from the file.
			res, err = checkpoint.Complete(m, meta, *ckEvery, func(data []byte) error {
				return checkpoint.WriteFileAtomic(ckPath, data)
			})
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					fmt.Fprintf(os.Stderr, "ubsim: resume with: ubsim -resume %s\n", ckPath)
				}
				return reportRunErr(err, *statsJSON)
			}
		} else {
			res, err = workloadspec.Run(ctx, params, w, d.Name, d.Factory)
			if err != nil {
				return reportRunErr(err, *statsJSON)
			}
		}
	}
	printResult(res)
	return 0
}

// sanitize maps a workload or design spec to a filesystem-safe filename
// fragment (inline JSON specs and file paths contain separators).
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, s)
}

// reportRunErr distinguishes a clean signal-driven cancellation (partial
// observability artifacts were still flushed) from a real failure.
func reportRunErr(err error, statsJSON string) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "ubsim: interrupted; run cancelled at a heartbeat boundary")
		if statsJSON != "" {
			fmt.Fprintf(os.Stderr, "ubsim: partial heartbeat stream and manifest flushed to %s\n", statsJSON)
		}
		return 130
	}
	fmt.Fprintln(os.Stderr, err)
	return 1
}

func printResult(res sim.Result) {
	c := res.Core
	fmt.Printf("workload:  %s\ndesign:    %s\n", res.Workload, res.Design)
	fmt.Printf("instructions: %d  cycles: %d  IPC: %.4f\n", c.Instructions, c.Cycles, c.IPC())
	fmt.Printf("L1-I: fetches=%d hits=%d misses=%d MPKI=%.2f\n",
		res.ICache.Fetches, res.ICache.Hits, res.ICache.Misses, res.MPKI())
	fmt.Printf("      prefetches=%d dropped=%d MSHR-stall-cycles=%d\n",
		res.ICache.Prefetches, res.ICache.PrefetchDrops, res.ICache.MSHRStalls)
	fmt.Printf("fetch stalls (cycles): icache=%d mispredict=%d resteer=%d backpressure=%d ftq=%d\n",
		c.Stalls[core.StallICache], c.Stalls[core.StallMispredict],
		c.Stalls[core.StallResteer], c.Stalls[core.StallBackpressure],
		c.Stalls[core.StallFTQEmpty])
	fmt.Printf("front-end (icache) stall fraction: %s\n", stats.Pct(c.FrontEndStallFraction()))
	fmt.Printf("branches: %d  mispredict MPKI: %.2f  decode resteers: %d\n",
		res.BPU.Branches, res.BPU.MPKI(c.Instructions), res.BPU.DecodeResteers)
	if len(res.EffSamples) > 0 {
		sum := stats.Summarise(res.EffSamples)
		fmt.Printf("storage efficiency: %s\n", sum)
		fmt.Print(stats.RenderViolin("  efficiency", sum, 50))
	}
	if res.UBS != nil {
		u := res.UBS
		fmt.Printf("UBS: predictor-hits=%d way-hits=%d placements=%d salvaged=%d discarded=%d\n",
			u.PredictorHits, u.WayHits, u.Placements, u.SalvagedMoves, u.DiscardedBlocks)
		bk := res.ICache.ByKind
		fmt.Printf("     misses by kind: full=%d missing-sub-block=%d overrun=%d underrun=%d (partial %s)\n",
			bk[icache.FullMiss], bk[icache.MissingSubBlock], bk[icache.Overrun],
			bk[icache.Underrun], stats.Pct(res.ICache.PartialMissFraction()))
	}
}
