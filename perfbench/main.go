// Command perfbench is the benchmark of record for the UBS simulator. It
// runs one named workload against the simulator's own packages, checks
// the simulated outputs, prints a readable report and, as its last line,
// one JSON object with the metrics of the selected mode:
//
//	perfbench --workload server-ubs --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// gives the per-layer breakdown. README.md explains how to read both.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricSets reads the end-to-end and per-layer metric lists from
// BENCHMARK.json, the one place they are declared.
func metricSets(path string) (endToEnd, perLayer []metricSpec, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.EndToEnd, doc.PerLayer, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(b *bench) error{
	"server-ubs":  func(b *bench) error { return singleRun(b, serverUBS) },
	"spec-conv32": func(b *bench) error { return singleRun(b, specConv32) },
	"sweep-mixed": sweepMixed,
}

// bench collects one run's checks and metrics.
type bench struct {
	seed    int64
	budget  time.Duration
	traced  bool
	workers int
	tmp     string // this run's temporary directory, under tmpRoot

	attempted, failed int
	wrong             int // failed output checks
	values            map[string]float64
	notes             map[string]string
	log               *bufio.Writer
}

// op counts one operation (a run, a sweep point, a served job) and
// whether it succeeded.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// check counts one output check and reports it.
func (b *bench) check(name string, ok bool, detail string) {
	b.op(ok)
	verdict := "ok"
	if !ok {
		verdict = "FAIL"
		b.wrong++
	}
	b.printf("check %-44s %s  %s\n", name, verdict, detail)
}

// put records a metric; note says how it was measured.
func (b *bench) put(name string, v float64, note string) {
	b.values[name] = v
	b.notes[name] = note
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.log, format, args...) }

// tmpRoot holds the sweep stores, inside the checkout and ignored by git.
const tmpRoot = ".bench_build/tmp"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: server-ubs, spec-conv32 or sweep-mixed")
		seed    = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds = flag.Int("seconds", 30, "measurement budget in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer breakdown")
		commit  = flag.String("commit", "unknown", "source revision, recorded in the host fingerprint")
	)
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	endToEnd, perLayer, err := metricSets("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		os.RemoveAll(dir)
		os.Exit(143)
	}()

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	b := &bench{
		seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, workers: runtime.NumCPU(), tmp: dir,
		values: map[string]float64{}, notes: map[string]string{}, log: out,
	}
	b.printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)
	b.printf("workload %s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traced)
	if err := drive(b); err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.put("max_rss_mb", maxRSSMB(), "peak resident set of the whole run")

	specs := endToEnd
	if b.traced {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, s := range specs {
		v, ok := b.values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.Flush()
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", s.Name)
			return 1
		}
		metrics[s.Name] = value{v, s.Unit}
		b.printf("metric %-36s %14.6g %-12s %s\n", s.Name, v, s.Unit, b.notes[s.Name])
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.wrong == 0, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.printf("%s\n", line)
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
