package snap

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

type inner struct {
	A uint64
	B []float64
}

type outer struct {
	Flag    bool
	I8      int8
	I16     int16
	I32     int32
	I64     int64
	N       int
	U8      uint8
	U16     uint16
	U32     uint32
	U64     uint64
	F32     float32
	F64     float64
	S       string
	Bytes   []uint8
	Fixed   [3]uint32
	Sub     inner
	Ptr     *inner
	NilPtr  *inner
	Nested  [][]int8
	scratch int `snap:"-"`
}

func sample() outer {
	return outer{
		Flag: true, I8: -5, I16: -300, I32: -70000, I64: -1 << 40, N: 42,
		U8: 200, U16: 60000, U32: 4_000_000_000, U64: 1 << 60,
		F32: 1.5, F64: -2.25, S: "hello",
		Bytes: []uint8{1, 2, 3},
		Fixed: [3]uint32{7, 8, 9},
		Sub:   inner{A: 11, B: []float64{0.5, 0.25}},
		Ptr:   &inner{A: 99, B: nil},
		Nested: [][]int8{
			{1, -1}, {}, {127},
		},
		scratch: 17,
	}
}

func TestRoundTrip(t *testing.T) {
	in := sample()
	data, err := Marshal(&in)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var out outer
	if err := Unmarshal(data, &out); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	// The contract is byte-level: re-encoding the decoded value must
	// reproduce the original stream (nil and empty slices both encode as
	// length 0, so DeepEqual is too strict here).
	again, err := Marshal(&out)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("round trip not byte-identical:\n in:  %+v\n out: %+v", in, out)
	}
	if out.scratch != 0 {
		t.Fatal("snap:\"-\" field was carried")
	}
	if out.S != "hello" || out.Ptr == nil || out.Ptr.A != 99 || out.NilPtr != nil ||
		!reflect.DeepEqual(out.Fixed, [3]uint32{7, 8, 9}) {
		t.Fatalf("decoded value wrong: %+v", out)
	}
}

func TestDeterministic(t *testing.T) {
	in := sample()
	a, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same value differ")
	}
}

func TestSliceCapacityReuse(t *testing.T) {
	in := inner{A: 1, B: []float64{1, 2, 3}}
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	out := inner{B: make([]float64, 0, 16)}
	backing := out.B[:1]
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if &backing[0] != &out.B[0] {
		t.Fatal("decode did not reuse the existing slice backing")
	}
}

func TestTruncationRejected(t *testing.T) {
	in := sample()
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		var out outer
		if err := Unmarshal(data[:n], &out); err == nil {
			t.Fatalf("truncation to %d bytes not rejected", n)
		}
	}
	var out outer
	if err := Unmarshal(append(append([]byte(nil), data...), 0), &out); err == nil {
		t.Fatal("trailing garbage not rejected")
	}
}

func TestHugeSliceLengthRejected(t *testing.T) {
	// A corrupted length prefix must not drive a giant allocation.
	data := []byte{0xff, 0xff, 0xff, 0x7f}
	var out []uint64
	if err := Unmarshal(data, &out); err == nil {
		t.Fatal("oversized slice length not rejected")
	}
}

func TestUnsupportedKinds(t *testing.T) {
	type bad struct{ M map[string]int }
	if _, err := Marshal(&bad{M: map[string]int{}}); err == nil {
		t.Fatal("map not rejected")
	}
	type unexp struct{ a int }
	if _, err := Marshal(&unexp{a: 1}); err == nil {
		t.Fatal("unexported field not rejected")
	}
}

func TestCopyMatchesRoundTrip(t *testing.T) {
	in := sample()
	var out outer
	if err := Copy(&out, &in); err != nil {
		t.Fatal(err)
	}
	want, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Marshal(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Copy differs from the value it copied:\n in:  %+v\n out: %+v", in, out)
	}
	if out.scratch != 0 {
		t.Fatal("snap:\"-\" field was copied")
	}
	// The copy is deep: mutating the source leaves it alone.
	in.Bytes[0], in.Ptr.A, in.Nested[0][0] = 9, 9, 9
	if out.Bytes[0] == 9 || out.Ptr.A == 9 || out.Nested[0][0] == 9 {
		t.Fatal("Copy shares storage with its source")
	}
}

func TestCopyReusesBacking(t *testing.T) {
	in := sample()
	var out outer
	if err := Copy(&out, &in); err != nil {
		t.Fatal(err)
	}
	bytesBacking, ptr := &out.Bytes[0], out.Ptr
	allocs := testing.AllocsPerRun(10, func() {
		if err := Copy(&out, &in); err != nil {
			t.Fatal(err)
		}
	})
	if &out.Bytes[0] != bytesBacking || out.Ptr != ptr {
		t.Fatal("a second Copy into the same value reallocated")
	}
	if allocs != 0 {
		t.Fatalf("a second Copy into the same value allocated %v times", allocs)
	}
}

type live struct {
	Table []uint16
	Queue []uint32 `snap:"queue"`
	Blob  []byte   `snap:"opaque"`
	Rows  [][]int8
	Opt   *inner
	Count uint64
}

func newLive() live {
	return live{
		Table: make([]uint16, 4),
		Queue: make([]uint32, 0, 3),
		Rows:  [][]int8{make([]int8, 2), make([]int8, 2)},
		Opt:   &inner{},
	}
}

func TestRestoreChecksShape(t *testing.T) {
	good := func() live {
		l := newLive()
		l.Table[1], l.Queue, l.Blob, l.Rows[1][0], l.Opt.A, l.Count = 7, []uint32{1, 2}, []byte("anything"), -3, 5, 11
		return l
	}
	dst := newLive()
	table, queue, opt := &dst.Table[0], &dst.Queue[:1][0], dst.Opt
	src := good()
	if err := Restore(&dst, &src); err != nil {
		t.Fatalf("matching shape rejected: %v", err)
	}
	if dst.Table[1] != 7 || len(dst.Queue) != 2 || dst.Rows[1][0] != -3 || dst.Opt.A != 5 || dst.Count != 11 {
		t.Fatalf("restored value wrong: %+v", dst)
	}
	if len(dst.Blob) != 0 {
		t.Fatal("Restore wrote opaque bytes, which are their owner's to decode")
	}
	if &dst.Table[0] != table || &dst.Queue[0] != queue || dst.Opt != opt {
		t.Fatal("Restore replaced the target's pre-sized backing")
	}

	for name, bend := range map[string]func(*live){
		"table length":   func(l *live) { l.Table = make([]uint16, 5) },
		"queue capacity": func(l *live) { l.Queue = []uint32{1, 2, 3, 4} },
		"row length":     func(l *live) { l.Rows[0] = make([]int8, 3) },
		"row count":      func(l *live) { l.Rows = l.Rows[:1] },
		"missing struct": func(l *live) { l.Opt = nil },
	} {
		t.Run(name, func(t *testing.T) {
			dst := newLive()
			before, err := Marshal(&dst)
			if err != nil {
				t.Fatal(err)
			}
			src := good()
			bend(&src)
			if err := Restore(&dst, &src); err == nil {
				t.Fatal("shape mismatch accepted")
			} else {
				t.Log(err)
			}
			after, err := Marshal(&dst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("a rejected Restore wrote into its target")
			}
		})
	}
	t.Run("extra struct", func(t *testing.T) {
		dst := newLive()
		dst.Opt = nil
		src := good()
		if err := Restore(&dst, &src); err == nil {
			t.Fatal("structure the target lacks accepted")
		}
	})
}

func TestRestoreBytes(t *testing.T) {
	src := newLive()
	src.Table[3], src.Queue = 42, []uint32{9}
	data, err := Marshal(&src)
	if err != nil {
		t.Fatal(err)
	}
	dst := newLive()
	if err := RestoreBytes(&dst, data); err != nil {
		t.Fatal(err)
	}
	if dst.Table[3] != 42 || len(dst.Queue) != 1 || cap(dst.Queue) != 3 {
		t.Fatalf("restored value wrong: %+v", dst)
	}
	if err := RestoreBytes(&dst, data[:len(data)-1]); err == nil {
		t.Fatal("truncated bytes accepted")
	}
}

type f32s struct{ F []float32 }

type node struct {
	V    uint8
	Next *node
	Kids []node
}

// ra and rb reach each other: rb holds an ra inline, ra points at an rb.
type ra struct {
	P *rb
	N uint64
}

type rb struct {
	X ra
	Y uint16
}

type midUnexported struct {
	A uint8
	b int
	C []uint8
}

type lazyReject struct {
	P *struct{ M map[int]int }
	S []map[int]int
	F func()
}

type runs struct {
	A, B, C bool
	D       uint8
	E       uint32
	F       int
	G       [3]uint16
	H       []struct {
		X uint64
		Y bool
		Z int32
	}
	I [2]struct{ P, Q uint32 }
}

// TestPlanMatchesReferenceEdgeCases checks the compiled plans against the
// reflective reference on the corners the state types do not reach:
// signalling NaNs, recursive and mutually recursive types, rejected
// fields behind nil pointers and empty slices, and coalesced runs of
// scalars with bools among them. Every truncation and, at every offset,
// every small byte value must decode to the reference's error or value.
func TestPlanMatchesReferenceEdgeCases(t *testing.T) {
	snan := math.Float32frombits(0x7f800001)
	for name, v := range map[string]any{
		"sample":          ptr(sample()),
		"sample by value": sample(),
		"signalling nan":  &f32s{F: []float32{snan, 1, float32(math.Inf(-1))}},
		"recursive":       &node{V: 1, Next: &node{V: 2, Kids: []node{{V: 3}}}, Kids: []node{{Next: &node{}}}},
		"mutual":          &[]rb{{X: ra{P: &rb{Y: 7}, N: 9}, Y: 1}, {Y: 2}},
		"unexported":      &midUnexported{A: 1, C: []uint8{2}},
		"lazy reject":     &lazyReject{},
		"reject reached":  &lazyReject{S: []map[int]int{nil}},
		"runs": &runs{A: true, C: true, D: 4, E: 5, F: -6, G: [3]uint16{7, 8, 9},
			H: []struct {
				X uint64
				Y bool
				Z int32
			}{{1, true, -1}, {2, false, 3}}, I: [2]struct{ P, Q uint32 }{{1, 2}, {3, 4}}},
	} {
		t.Run(name, func(t *testing.T) {
			got, gerr := Marshal(v)
			want, werr := RefMarshal(v)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(got, want) {
				t.Fatalf("Marshal = %x, %v; reference %x, %v", got, gerr, want, werr)
			}
			if gerr != nil {
				return
			}
			typ := reflect.TypeOf(v)
			if typ.Kind() == reflect.Pointer {
				typ = typ.Elem()
			}
			check := func(what string, data []byte) {
				g, w := reflect.New(typ), reflect.New(typ)
				gerr, werr := Unmarshal(data, g.Interface()), RefUnmarshal(data, w.Interface())
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%s: Unmarshal error %v, reference %v", what, gerr, werr)
				}
				if gerr != nil {
					return
				}
				// Compare through the reference encoding, so that a NaN
				// equals itself.
				gb, _ := RefMarshal(g.Interface())
				wb, _ := RefMarshal(w.Interface())
				if !bytes.Equal(gb, wb) {
					t.Fatalf("%s: decoded %x, reference %x", what, gb, wb)
				}
			}
			for n := 0; n <= len(want); n++ {
				check(fmt.Sprintf("truncated to %d", n), want[:n])
			}
			for at := range want {
				for b := 0; b < 6; b++ {
					bad := append([]byte(nil), want...)
					bad[at] = byte(b)
					check(fmt.Sprintf("byte %d set to %d", at, b), bad)
				}
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }
