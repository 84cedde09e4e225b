package sim

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ubscache/internal/bpu"
	"ubscache/internal/core"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/trace"
	"ubscache/internal/ubs"
	"ubscache/internal/workload"
)

func tinyParams() Params {
	p := DefaultParams()
	p.Warmup = 30_000
	p.Measure = 100_000
	return p
}

func specCfg(t *testing.T) workload.Config {
	t.Helper()
	cfg, err := workload.Preset(workload.FamilySPEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// runConfig simulates a generator configuration through Run.
func runConfig(ctx context.Context, p Params, wcfg workload.Config, design string, factory FrontendFactory) (Result, error) {
	w, err := workload.New(wcfg)
	if err != nil {
		return Result{}, err
	}
	return Run(ctx, p, w, wcfg.Name, design, factory)
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Warmup == 0 || p.Measure == 0 || p.SampleInterval != 100_000 {
		t.Errorf("defaults: %+v", p)
	}
	if !p.DataCache {
		t.Error("data cache disabled by default")
	}
}

// TestNewMachineDefaultsZeroSections pins that NewMachine, and so every
// path that builds a machine, gives a zero Core or Hierarchy section its
// Table I value: the run matches one with the sections spelled out.
func TestNewMachineDefaultsZeroSections(t *testing.T) {
	p := tinyParams()
	p.Warmup, p.Measure = 5_000, 20_000
	want, err := runConfig(context.Background(), p, specCfg(t), "conv", MustDesign("conv:32").Factory)
	if err != nil {
		t.Fatal(err)
	}
	p.Core, p.Hierarchy = core.Config{}, mem.HierarchyConfig{}
	got, err := runConfig(context.Background(), p, specCfg(t), "conv", MustDesign("conv:32").Factory)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero sections ran differently:\n got  %+v\n want %+v", got.Core, want.Core)
	}
}

func TestRunConventional(t *testing.T) {
	res, err := runConfig(context.Background(), tinyParams(), specCfg(t), "conv", MustDesign("conv:32").Factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != "conv" || res.Workload != "spec_001" {
		t.Errorf("labels: %+v", res)
	}
	if res.Core.Instructions < 100_000 {
		t.Errorf("retired %d", res.Core.Instructions)
	}
	if res.IPC() <= 0 || res.IPC() > 4 {
		t.Errorf("IPC %f", res.IPC())
	}
	if res.UBS != nil {
		t.Error("conventional run carries UBS stats")
	}
	if res.BPU.Branches == 0 {
		t.Error("no branch statistics")
	}
}

func TestRunUBSCarriesExtendedStats(t *testing.T) {
	res, err := runConfig(context.Background(), tinyParams(), specCfg(t), "ubs", MustDesign("ubs").Factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.UBS == nil {
		t.Fatal("UBS stats missing")
	}
	if res.UBS.PredictorHits+res.UBS.WayHits == 0 {
		t.Error("no UBS hits recorded")
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	// Measured icache stats must exclude warmup: a run with warmup must
	// report fewer fetches than warmup+measure would produce.
	p := tinyParams()
	resWarm, err := runConfig(context.Background(), p, specCfg(t), "conv", MustDesign("conv:32").Factory)
	if err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.Warmup = 0
	p2.Measure = p.Warmup + p.Measure
	resAll, err := runConfig(context.Background(), p2, specCfg(t), "conv", MustDesign("conv:32").Factory)
	if err != nil {
		t.Fatal(err)
	}
	if resWarm.ICache.Fetches >= resAll.ICache.Fetches {
		t.Errorf("warmup not excluded: %d vs %d fetches",
			resWarm.ICache.Fetches, resAll.ICache.Fetches)
	}
	// Warmed run must not have cold-start misses dominating.
	if resWarm.MPKI() > resAll.MPKI() {
		t.Errorf("warmed MPKI %.2f above cold MPKI %.2f", resWarm.MPKI(), resAll.MPKI())
	}
}

func TestDeterminism(t *testing.T) {
	a, err := runConfig(context.Background(), tinyParams(), specCfg(t), "ubs", MustDesign("ubs").Factory)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runConfig(context.Background(), tinyParams(), specCfg(t), "ubs", MustDesign("ubs").Factory)
	if err != nil {
		t.Fatal(err)
	}
	if a.Core.Cycles != b.Core.Cycles || a.ICache.Misses != b.ICache.Misses ||
		a.BPU.Mispredictions != b.BPU.Mispredictions {
		t.Errorf("runs differ: %+v vs %+v", a.Core, b.Core)
	}
}

func TestEfficiencySampling(t *testing.T) {
	p := tinyParams()
	p.SampleInterval = 10_000
	res, err := runConfig(context.Background(), p, specCfg(t), "conv", MustDesign("conv:32").Factory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EffSamples) < 5 {
		t.Fatalf("only %d efficiency samples", len(res.EffSamples))
	}
	for _, e := range res.EffSamples {
		if e < 0 || e > 1 {
			t.Fatalf("sample %f out of range", e)
		}
	}
	// Disabled sampling yields none.
	p.SampleInterval = 0
	res, err = runConfig(context.Background(), p, specCfg(t), "conv", MustDesign("conv:32").Factory)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EffSamples) != 0 {
		t.Error("samples collected with sampling disabled")
	}
}

func TestTraceEndsDuringWarmup(t *testing.T) {
	short := trace.NewSlice(trace.Collect(mustWalker(t), 1000))
	_, err := Run(context.Background(), tinyParams(), short, "short", "conv",
		MustDesign("conv:32").Factory)
	if err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Errorf("expected warmup error, got %v", err)
	}
}

func TestTraceEndsDuringMeasurement(t *testing.T) {
	short := trace.NewSlice(trace.Collect(mustWalker(t), 50_000))
	p := tinyParams()
	p.Warmup = 10_000
	p.Measure = 1_000_000
	_, err := Run(context.Background(), p, short, "short", "conv", MustDesign("conv:32").Factory)
	if err == nil || !strings.Contains(err.Error(), "measurement") {
		t.Errorf("expected measurement error, got %v", err)
	}
}

func mustWalker(t *testing.T) trace.Source {
	t.Helper()
	w, err := workload.New(specCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAllFactoriesBuild(t *testing.T) {
	factories := map[string]FrontendFactory{
		"conv":       MustDesign("conv:32").Factory,
		"ubs":        MustDesign("ubs").Factory,
		"smallblock": MustDesign("smallblock16").Factory,
		"distill":    MustDesign("distill").Factory,
	}
	p := tinyParams()
	p.Warmup = 5_000
	p.Measure = 20_000
	for name, f := range factories {
		if _, err := runConfig(context.Background(), p, specCfg(t), name, f); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBadFactoryConfigRejected(t *testing.T) {
	if _, err := NewUBSDesign(UBSDesign{Custom: &ubs.Config{}}); err == nil { // zero config is invalid
		t.Error("invalid UBS config accepted")
	}
	badSB, err := NewSmallBlockDesign(SmallBlockDesign{Custom: &icache.SmallBlockConfig{BlockSize: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runConfig(context.Background(), tinyParams(), specCfg(t), "bad", badSB.Factory); err == nil {
		t.Error("invalid small-block config accepted")
	}
}

func TestNoDataCacheMode(t *testing.T) {
	p := tinyParams()
	p.DataCache = false
	res, err := runConfig(context.Background(), p, specCfg(t), "conv", MustDesign("conv:32").Factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 {
		t.Errorf("IPC %f without data cache", res.IPC())
	}
}

func TestResultHelpers(t *testing.T) {
	res, err := runConfig(context.Background(), tinyParams(), specCfg(t), "conv", MustDesign("conv:32").Factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.MPKI() < 0 {
		t.Error("negative MPKI")
	}
	if res.StallCycles() > res.Core.Cycles {
		t.Error("stall cycles exceed total cycles")
	}
}

// fillNumeric sets every numeric leaf of a stats struct to x, recursing
// through nested structs and arrays. It fails the test on any field kind it
// does not understand, so adding an exotic field forces extending this
// helper alongside the Delta methods it audits.
func fillNumeric(t *testing.T, v reflect.Value, path string, x uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(x)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(x))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(x))
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillNumeric(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), x)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNumeric(t, v.Field(i), path+"."+v.Type().Field(i).Name, x)
		}
	default:
		t.Fatalf("%s: unsupported stats field kind %s; teach fillNumeric and Delta about it", path, v.Kind())
	}
}

// checkNumeric asserts every numeric leaf equals want, naming the first
// offender by its field path.
func checkNumeric(t *testing.T, v reflect.Value, path string, want uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.Uint() != want {
			t.Errorf("%s = %d after Delta, want %d (field not subtracted?)", path, v.Uint(), want)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Int() != int64(want) {
			t.Errorf("%s = %d after Delta, want %d (field not subtracted?)", path, v.Int(), want)
		}
	case reflect.Float32, reflect.Float64:
		if v.Float() != float64(want) {
			t.Errorf("%s = %g after Delta, want %d (field not subtracted?)", path, v.Float(), want)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			checkNumeric(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), want)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkNumeric(t, v.Field(i), path+"."+v.Type().Field(i).Name, want)
		}
	default:
		t.Fatalf("%s: unsupported stats field kind %s", path, v.Kind())
	}
}

// TestStatsDeltaExhaustive guards the warmup-subtraction path: every numeric
// field of the frontend stats types must be handled by its Delta method.
// Adding a counter without extending Delta leaves the new field at its
// end-of-run value (warmup included) and fails here.
func TestStatsDeltaExhaustive(t *testing.T) {
	for _, tc := range []struct {
		name string
		zero interface{}
	}{
		{"icache.Stats", icache.Stats{}},
		{"bpu.Stats", bpu.Stats{}},
	} {
		typ := reflect.TypeOf(tc.zero)
		after := reflect.New(typ).Elem()
		before := reflect.New(typ).Elem()
		fillNumeric(t, after, tc.name, 3)
		fillNumeric(t, before, tc.name, 1)
		m := after.MethodByName("Delta")
		if !m.IsValid() {
			t.Fatalf("%s has no Delta method", tc.name)
		}
		out := m.Call([]reflect.Value{before})[0]
		checkNumeric(t, out, tc.name, 2)
	}
}
