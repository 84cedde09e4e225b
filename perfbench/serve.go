package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ubscache/internal/runner"
	"ubscache/internal/serve"
	"ubscache/internal/sim"
	"ubscache/internal/workloadspec"
)

// jobShape is one kind of ubsd job: a workload spec on a design.
type jobShape struct {
	spec   workloadspec.Spec
	design string
}

// openLoop is an open-loop job stream: Poisson arrivals at a fixed rate,
// independent of how fast the server completes them.
type openLoop struct {
	shapes   []jobShape
	params   runner.ParamSpec
	rate     float64 // jobs per second
	duration time.Duration
}

// serveProbe is the short stream that measures the serve layer over a
// workload's own points.
func serveProbe(shapes []jobShape) openLoop {
	return openLoop{shapes: shapes, params: probeParams, rate: 4, duration: 2 * time.Second}
}

// plannedJob is one generated submission, due at offset at from the
// stream's start.
type plannedJob struct {
	at  time.Duration
	req serve.SubmitRequest
}

// plan generates the stream from the seed. The inter-arrival gaps are
// the n quantiles of the exponential distribution at the stream's rate,
// in seeded order: Poisson-like arrivals whose realised rate and gap mix
// are the same for every seed. Fresh jobs cycle through the shapes in
// seeded order, each shape once per cycle. In each group of four jobs
// one, at a seeded position, is interactive; in each group of three one
// repeats the request of a random earlier job, so it shares that job's
// key. A fresh job gets a measure length no other job has, so its key is
// new.
func (o openLoop) plan(seed int64) []plannedJob {
	n := int(o.rate * o.duration.Seconds())
	gaps := make([]time.Duration, n)
	for k := range gaps {
		gaps[k] = time.Duration(-math.Log(1-(float64(k)+0.5)/float64(n)) / o.rate * float64(time.Second))
	}
	rng := rand.New(rand.NewSource(derive(seed, 3)))
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	jobs := make([]plannedJob, 0, n)
	var fresh []serve.SubmitRequest
	var deck []int
	var at time.Duration
	var interactive, repeat int
	for i := 0; i < n; i++ {
		at += gaps[i]
		if i%4 == 0 {
			interactive = i + rng.Intn(4)
		}
		if i%3 == 0 {
			repeat = i + rng.Intn(3)
		}
		var req serve.SubmitRequest
		if i == repeat && len(fresh) > 0 {
			req = fresh[rng.Intn(len(fresh))]
		} else {
			if len(deck) == 0 {
				deck = rng.Perm(len(o.shapes))
			}
			s := o.shapes[deck[0]]
			deck = deck[1:]
			spec := s.spec
			req = serve.SubmitRequest{Design: s.design, WorkloadSpec: &spec,
				Warmup: o.params.Warmup, Measure: o.params.Measure + uint64(i)}
			fresh = append(fresh, req)
		}
		req.Priority = serve.Batch
		if i == interactive {
			req.Priority = serve.Interactive
		}
		jobs = append(jobs, plannedJob{at, req})
	}
	return jobs
}

// served is the outcome of one open-loop stream.
type served struct {
	latency                   []float64 // due to terminal state, s; +Inf for rejected or failed jobs
	queueWait                 []float64
	run                       []float64 // start to end of jobs that executed (not served from cache)
	submitMS                  []float64
	lag                       []float64 // how late the generator submitted, s
	runNS                     float64   // summed run time of executed jobs
	jobs, rejected, fromCache int
}

// drainTimeout bounds the wait for the stream's last jobs.
const drainTimeout = 60 * time.Second

// runStream plays the stream against an in-process serve.Server, then
// checks the results.
func runStream(b *bench, o openLoop) (*served, error) {
	jobs := o.plan(b.seed)
	srv := serve.New(serve.Config{Workers: b.workers})
	defer srv.Close()
	r := &served{jobs: len(jobs)}

	subs := make([]*serve.Job, len(jobs))
	dues := make([]time.Time, len(jobs))
	start := time.Now().Add(10 * time.Millisecond)
	for i, pj := range jobs {
		dues[i] = start.Add(pj.at)
		if d := time.Until(dues[i]); d > 0 {
			time.Sleep(d)
		}
		t1 := time.Now()
		j, err := srv.Submit(pj.req)
		r.submitMS = append(r.submitMS, time.Since(t1).Seconds()*1e3)
		r.lag = append(r.lag, t1.Sub(dues[i]).Seconds())
		var sat *serve.SaturatedError
		switch {
		case errors.As(err, &sat):
			r.rejected++
		case err != nil:
			return nil, err
		}
		subs[i] = j
	}
	deadline := time.Now().Add(drainTimeout)
	for pending := true; pending && time.Now().Before(deadline); {
		pending = false
		for _, j := range subs {
			if j != nil && !j.State().Terminal() {
				pending = true
				time.Sleep(5 * time.Millisecond)
				break
			}
		}
	}

	byKey := map[string][]byte{}
	shared := map[string]int{}
	identical, counted := true, true
	for i, j := range subs {
		if j == nil {
			b.op(false)
			r.latency = append(r.latency, math.Inf(1))
			continue
		}
		st := j.Status()
		if st.State != serve.JobDone {
			b.op(false)
			r.latency = append(r.latency, math.Inf(1))
			continue
		}
		b.op(true)
		res, js, _ := j.Result()
		counted = counted && retired(res.Core.Instructions, jobs[i].req.Measure)
		if prev, ok := byKey[st.Key]; ok {
			identical = identical && bytes.Equal(prev, js)
		}
		byKey[st.Key] = js
		shared[st.Key]++
		r.latency = append(r.latency, st.FinishedAt.Sub(dues[i]).Seconds())
		r.queueWait = append(r.queueWait, st.StartedAt.Sub(st.SubmittedAt).Seconds())
		if st.FromCache {
			r.fromCache++
			continue
		}
		run := st.FinishedAt.Sub(*st.StartedAt)
		r.run = append(r.run, run.Seconds())
		r.runNS += float64(run.Nanoseconds())
	}
	b.printf("stream %d jobs at %.0f/s over %s: executed-job utilisation %.2f of %d workers\n",
		len(jobs), o.rate, o.duration, r.runNS/1e9/(o.duration.Seconds()*float64(b.workers)), b.workers)
	b.check("ubsd jobs retire the requested instructions", counted, fmt.Sprintf("%d jobs done", len(r.latency)-countInf(r.latency)))
	b.check("ubsd jobs sharing a key return identical results", identical, fmt.Sprintf("%d keys", len(byKey)))
	return r, directCheck(b, jobs, subs, byKey, shared)
}

// directCheck compares up to three shared keys' served results with a
// direct simulation of the same point.
func directCheck(b *bench, jobs []plannedJob, subs []*serve.Job, byKey map[string][]byte, shared map[string]int) error {
	checked := map[string]bool{}
	for i, j := range subs {
		if j == nil || shared[j.Key()] < 2 || checked[j.Key()] || len(checked) == 3 {
			continue
		}
		js, ok := byKey[j.Key()]
		if !ok {
			continue
		}
		checked[j.Key()] = true
		req := jobs[i].req
		wl, err := workloadspec.ResolveWorkload(*req.WorkloadSpec)
		if err != nil {
			return err
		}
		d, err := sim.ParseDesign(req.Design)
		if err != nil {
			return err
		}
		p := sim.DefaultParams()
		p.Warmup, p.Measure = req.Warmup, req.Measure
		res, err := workloadspec.Run(context.Background(), p, wl, d.Name, d.Factory)
		if err != nil {
			return err
		}
		direct, err := json.Marshal(res)
		if err != nil {
			return err
		}
		b.check("served result equals a direct sim run", bytes.Equal(direct, js),
			fmt.Sprintf("%s on %s, %d jobs share the key", wl.Name, d.Name, shared[j.Key()]))
	}
	return nil
}

func countInf(xs []float64) int {
	n := 0
	for _, x := range xs {
		if math.IsInf(x, 1) {
			n++
		}
	}
	return n
}

// serveLayer plays a stream and records the serve layer's per-layer
// metrics.
func serveLayer(b *bench, o openLoop) error {
	r, err := runStream(b, o)
	if err != nil {
		return err
	}
	done := float64(len(r.latency) - countInf(r.latency))
	b.put("serve.submit_ms_p50", median(r.submitMS), fmt.Sprintf("Submit call, %d samples", len(r.submitMS)))
	b.put("serve.queue_wait_p50_s", median(r.queueWait), fmt.Sprintf("submitted to started, %d samples", len(r.queueWait)))
	b.put("serve.queue_wait_p95_s", quantile(r.queueWait, 0.95), fmt.Sprintf("submitted to started, %d samples", len(r.queueWait)))
	b.put("serve.run_p50_s", median(r.run), fmt.Sprintf("started to finished, %d executed jobs", len(r.run)))
	b.put("serve.from_cache_frac", ratio(float64(r.fromCache), done), "of completed jobs")
	b.put("serve.rejected_frac", ratio(float64(r.rejected), float64(r.jobs)), "of submitted jobs")
	b.put("serve.jobs", float64(r.jobs), fmt.Sprintf("open loop, %.0f jobs/s for %s", o.rate, o.duration))
	b.put("gen.lag_p95_s", quantile(r.lag, 0.95), "how late the generator submitted")
	return nil
}
