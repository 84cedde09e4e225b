package snap_test

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ubscache/internal/bpu"
	"ubscache/internal/cache"
	"ubscache/internal/core"
	"ubscache/internal/fdip"
	"ubscache/internal/icache"
	"ubscache/internal/mem"
	"ubscache/internal/sim"
	"ubscache/internal/snap"
	"ubscache/internal/ubs"
	"ubscache/internal/workloadspec"
)

// stateTypes is every //ubs:state type; TestStateTypesListed keeps the
// list in step with the source.
var stateTypes = []reflect.Type{
	reflect.TypeFor[sim.MachineState](),
	reflect.TypeFor[core.State](),
	reflect.TypeFor[fdip.State](),
	reflect.TypeFor[bpu.State](),
	reflect.TypeFor[cache.State](),
	reflect.TypeFor[mem.MSHRState](),
	reflect.TypeFor[mem.DRAMState](),
	reflect.TypeFor[mem.HierarchyState](),
	reflect.TypeFor[mem.DataCacheState](),
	reflect.TypeFor[icache.EngineState](),
	reflect.TypeFor[icache.ConventionalState](),
	reflect.TypeFor[icache.SmallBlockState](),
	reflect.TypeFor[icache.DistillState](),
	reflect.TypeFor[ubs.State](),
}

// TestStateTypesListed parses the packages under internal/ and requires
// stateTypes to name exactly the types documented //ubs:state.
func TestStateTypesListed(t *testing.T) {
	var found []string
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE || gd.Doc == nil {
				continue
			}
			for _, c := range gd.Doc.List {
				if c.Text == "//ubs:state" {
					found = append(found, f.Name.Name+"."+gd.Specs[0].(*ast.TypeSpec).Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, typ := range stateTypes {
		listed = append(listed, typ.String())
	}
	slices.Sort(found)
	slices.Sort(listed)
	if !slices.Equal(found, listed) {
		t.Fatalf("//ubs:state types in the source:\n  %v\nlisted in stateTypes:\n  %v", found, listed)
	}
}

// sameValue reports whether a and b hold the same value: like
// reflect.DeepEqual, but floats compare by bits (a NaN equals itself)
// and fields tagged snap:"-" are compared too.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	default:
		return a.Uint() == b.Uint()
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// diffDecode decodes data with the plan and with the reference, each
// into its own target from newTarget, and fails unless both give the
// same error or the same value.
func diffDecode(t *testing.T, what string, data []byte, newTarget func() reflect.Value) {
	t.Helper()
	got, want := newTarget(), newTarget()
	gerr := snap.Unmarshal(data, got.Interface())
	werr := snap.RefUnmarshal(data, want.Interface())
	if errText(gerr) != errText(werr) {
		t.Fatalf("%s: decode error %q, reference %q", what, errText(gerr), errText(werr))
	}
	if gerr == nil && !sameValue(got, want) {
		t.Fatalf("%s: decoded value differs from the reference's", what)
	}
}

// checkCodec requires the plan codec to agree with the reference on v
// (a pointer to a state value): the same bytes, Size their length, and
// the same decode, into fresh and into already-populated targets, of
// the bytes and of mutations of them. mutations bounds the mutation
// count, which costs a reference decode each.
func checkCodec(t *testing.T, what string, v any, rng *rand.Rand, mutations int) {
	t.Helper()
	got, gerr := snap.Marshal(v)
	want, werr := snap.RefMarshal(v)
	if errText(gerr) != errText(werr) {
		t.Fatalf("%s: encode error %q, reference %q", what, errText(gerr), errText(werr))
	}
	if gerr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: %d bytes, reference %d; first difference at byte %d", what, len(got), len(want), i)
	}
	if n, err := snap.Size(v); err != nil || n != len(got) {
		t.Fatalf("%s: Size = %d, %v; Marshal wrote %d bytes", what, n, err, len(got))
	}
	typ := reflect.TypeOf(v).Elem()
	fresh := func() reflect.Value { return reflect.New(typ) }
	// A populated target: decoding reuses its slice capacity and its
	// pointees, so plan and reference must agree on what they keep.
	populated := func() reflect.Value {
		x := reflect.New(typ)
		if err := snap.RefUnmarshal(want, x.Interface()); err != nil {
			t.Fatal(err)
		}
		return x
	}
	diffDecode(t, what, want, fresh)
	diffDecode(t, what+" into a populated value", want, populated)
	for i := 0; i < mutations; i++ {
		bad := append([]byte(nil), want...)
		var m string
		switch k := rng.Intn(4); {
		case k == 0 || len(bad) == 0:
			n := rng.Intn(len(bad) + 1)
			bad, m = bad[:n], fmt.Sprintf("truncated to %d", n)
		case k == 1:
			bad, m = append(bad, byte(rng.Intn(256))), "trailing byte"
		default:
			at, b := rng.Intn(len(bad)), byte(rng.Intn(256))
			if rng.Intn(2) == 0 {
				b = byte(2 + rng.Intn(3)) // an invalid bool or pointer flag, a small length
			}
			bad[at], m = b, fmt.Sprintf("byte %d set to %#x", at, b)
		}
		target := fresh
		if i%2 == 1 {
			target = populated
		}
		diffDecode(t, what+": "+m, bad, target)
	}
}

// fill sets v to a random value: random scalars, slices of 0-3
// elements (sometimes nil), pointers present two times in three.
func fill(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(rng.Uint64()) >> rng.Intn(64))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.Intn(64))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(rng.NormFloat64())
	case reflect.String:
		v.SetString(strings.Repeat("x", rng.Intn(4)))
	case reflect.Slice:
		if rng.Intn(5) == 0 {
			v.SetZero()
			return
		}
		n := rng.Intn(4)
		v.Set(reflect.MakeSlice(v.Type(), n, n+rng.Intn(2)))
		for i := 0; i < n; i++ {
			fill(v.Index(i), rng)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), rng)
		}
	case reflect.Pointer:
		if rng.Intn(3) == 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), rng)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("snap") != "-" {
				fill(v.Field(i), rng)
			}
		}
	}
}

// TestPlanMatchesReferenceRandom fills every state type with random
// values and checks the plan codec against the reference on each.
func TestPlanMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, typ := range stateTypes {
		t.Run(typ.String(), func(t *testing.T) {
			for i := 0; i < 40; i++ {
				v := reflect.New(typ)
				fill(v.Elem(), rng)
				checkCodec(t, fmt.Sprintf("value %d", i), v.Interface(), rng, 20)
			}
		})
	}
}

// frontendState returns a pointer to a new value of the state type the
// machine's frontend snapshots.
func frontendState(t *testing.T, m *sim.Machine) any {
	switch fe := m.Frontend().(type) {
	case *icache.Conventional:
		return new(icache.ConventionalState)
	case *icache.SmallBlock:
		return new(icache.SmallBlockState)
	case *icache.Distill:
		return new(icache.DistillState)
	case *ubs.Cache:
		return new(ubs.State)
	default:
		t.Fatalf("no state type for frontend %T", fe)
		return nil
	}
}

// midRunStates runs design on w halfway through the measured region and
// returns every state value reachable from the machine's snapshot: the
// MachineState, each layer's state, and the frontend's, decoded from its
// bytes.
func midRunStates(t *testing.T, p sim.Params, w workloadspec.Workload, design string) map[string]any {
	t.Helper()
	d, err := sim.ParseDesign(design)
	if err != nil {
		t.Fatal(err)
	}
	src, err := w.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := src.(interface{ Close() error }); ok {
		defer c.Close()
	}
	m, err := sim.NewMachine(context.Background(), p, src, w.Name, d.Name, d.Factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Warmup(); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(p.Measure / 2); err != nil {
		t.Fatal(err)
	}
	var st sim.MachineState
	if err := m.Snapshot(&st); err != nil {
		t.Fatal(err)
	}
	fe := frontendState(t, m)
	if err := snap.RefUnmarshal(st.Frontend, fe); err != nil {
		t.Fatal(err)
	}
	out := map[string]any{
		"machine": &st, "core": st.Core, "ftq": st.FTQ, "bpu": st.BPU,
		"hierarchy": st.Hierarchy, "l2": st.Hierarchy.L2.Cache, "l2-mshr": st.Hierarchy.L2.MSHR,
		"dram": st.Hierarchy.DRAM, "frontend": fe,
	}
	if st.DataCache != nil {
		out["l1d"] = st.DataCache
	}
	if e := reflect.ValueOf(fe).Elem().FieldByName("Engine"); e.IsValid() {
		out["engine"] = e.Interface()
	}
	return out
}

// goldenMatrix is the checkpoint package's byte-identity matrix: the
// three workload kinds by every design kind and policy variant.
func goldenMatrix(t *testing.T) (map[string]workloadspec.Workload, []string) {
	t.Helper()
	ws := map[string]workloadspec.Workload{}
	for name, spec := range map[string]string{
		"preset":   "server_001",
		"mix":      "mix:" + filepath.Join("..", "..", "examples", "specs", "clients.yaml"),
		"champsim": "champsim:" + filepath.Join("..", "trace", "testdata", "tiny.champsim"),
	} {
		w, err := workloadspec.ParseWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		ws[name] = w
	}
	return ws, []string{"conv:32", "ghrp", "acic", "ubs", "smallblock16", "distill"}
}

// tinyParams shrinks every structure of the machine, so a snapshot of
// it is a few kilobytes and many mutations of it decode quickly.
func tinyParams() sim.Params {
	p := sim.DefaultParams()
	p.Warmup, p.Measure, p.SampleInterval = 2_000, 8_000, 1_000
	p.Core.ROBSize, p.Core.SchedSize, p.Core.LQSize, p.Core.SQSize, p.Core.DecodeQueue = 16, 8, 8, 8, 8
	p.Core.FTQ = fdip.Config{Regions: 4, MaxInstrs: 16, Prefetch: true, PrefetchWindow: 8}
	p.BPU = bpu.Config{Tables: 2, TableEntries: 16, HistoryBits: 8, Threshold: 30,
		BTBEntries: 16, BTBWays: 2, RASEntries: 4}
	p.L1D = mem.DataCacheConfig{Sets: 4, Ways: 2, Lat: 5, MSHRs: 2, BlockSize: 64}
	p.Hierarchy = mem.HierarchyConfig{L2Sets: 8, L2Ways: 2, L2Lat: 12, L2MSHRs: 4,
		L3Sets: 8, L3Ways: 2, L3Lat: 30, L3MSHRs: 4, BlockSize: 64, DRAM: mem.DefaultDRAMConfig()}
	return p
}

// TestPlanMatchesReferenceMidRun checks the plan codec against the
// reference on the state of real machines halfway through a run, over
// the golden design × workload matrix: at full Table I size (the bytes
// and a clean decode) and shrunk (with mutations too).
func TestPlanMatchesReferenceMidRun(t *testing.T) {
	ws, designs := goldenMatrix(t)
	full := sim.DefaultParams()
	full.Warmup, full.Measure, full.SampleInterval = 5_000, 20_000, 2_000
	rng := rand.New(rand.NewSource(2))
	for wname, w := range ws {
		for _, design := range designs {
			t.Run(wname+"/"+design, func(t *testing.T) {
				if !testing.Short() {
					st := midRunStates(t, full, w, design)
					checkCodec(t, "full-size machine", st["machine"], rng, 0)
					checkCodec(t, "full-size frontend", st["frontend"], rng, 0)
				}
				for name, v := range midRunStates(t, tinyParams(), w, design) {
					checkCodec(t, "tiny "+name, v, rng, 30)
				}
			})
		}
	}
}

// unmarshalAllocSlack covers what decoding allocates regardless of the
// input's size: the fixed-size pointees of a MachineState (the core's
// completion ring alone is 4KB).
const unmarshalAllocSlack = 64 << 10

// FuzzUnmarshal decodes arbitrary bytes into a state type chosen by sel,
// with the plan and with the reflective reference. They must agree on
// the error or on the value; the plan must allocate no more than a small
// multiple of the input; and whatever decodes must re-encode to the
// same bytes.
func FuzzUnmarshal(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i, typ := range stateTypes {
		v := reflect.New(typ)
		fill(v.Elem(), rng)
		data, err := snap.Marshal(v.Interface())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), data)
		f.Add(uint8(i), data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		typ := stateTypes[int(sel)%len(stateTypes)]
		got, want := reflect.New(typ), reflect.New(typ)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		gerr := snap.Unmarshal(data, got.Interface())
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(data)+unmarshalAllocSlack) {
			t.Fatalf("decoding %d bytes into %s allocated %d bytes", len(data), typ, grew)
		}
		werr := snap.RefUnmarshal(data, want.Interface())
		if errText(gerr) != errText(werr) {
			t.Fatalf("%s: decode error %q, reference %q", typ, errText(gerr), errText(werr))
		}
		if gerr != nil {
			return
		}
		if !sameValue(got, want) {
			t.Fatalf("%s: decoded value differs from the reference's", typ)
		}
		again, err := snap.Marshal(got.Interface())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%s: decoded value re-encodes to different bytes (%d vs %d)", typ, len(again), len(data))
		}
	})
}
