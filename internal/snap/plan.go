package snap

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"unsafe"
)

// A plan is the codec of one Go type, compiled once from its
// reflect.Type and cached. Its ops encode and decode a value of the type
// given a pointer to it: a struct's fields become ops at their byte
// offsets, in declaration order, with nested structs inlined, so walking
// a slice of cache blocks is one loop over the element's ops and never
// asks reflect for a field.
type plan struct {
	typ  reflect.Type
	size uintptr // in memory: the stride of slice and array elements
	ops  []op
	// fixed is the encoded size when every op is a fixed-width scalar
	// (no slice, string, pointer or rejected field), else -1.
	fixed int
	// minSize is the fewest bytes a value encodes to, at least 1, so
	// that even a zero-size element cannot make a length prefix free.
	minSize int
	// flat reports whether values are deep-copied by plain assignment:
	// no slices or pointers anywhere inside and no tagged or unexported
	// struct fields.
	flat bool
	// raw reports that a value's encoding is its memory image, so a
	// slice or array of them is one copy: true for fixed-width integers
	// and for structs of them without padding or bools, on a
	// little-endian host.
	raw  bool
	done bool // compiled; a pointer or slice may see a plan before it is
}

type opcode uint8

const (
	opBool opcode = iota
	op8           // int8, uint8
	op16          // int16, uint16
	op32          // int32, uint32
	op64          // int64, uint64, float64
	opF32         // float32, through float64 as reflect's accessors do
	opInt         // platform int, 8 bytes on the wire
	opUint        // platform uint, 8 bytes on the wire
	opString
	opSlice
	opArray
	opPointer
	opRun    // contiguous plain scalars, copied as one block of n bytes
	opReject // a field or kind the codec refuses; err says which
)

// op codes one scalar or one composite at off bytes into the value.
type op struct {
	code opcode
	off  uintptr
	elem *plan        // opSlice, opArray, opPointer: the element
	n    int          // opArray: the length; opRun: the bytes
	typ  reflect.Type // opInt, opUint: named in the overflow error; opSlice: the slice type
	err  error        // opReject
	// opRun: the scalars it covers, at offsets from the run's start
	// (decoding truncated input replays them for the exact error), and
	// the offsets of its bools, which decoding checks are 0 or 1.
	sub   []op
	bools []uintptr
}

// fixedWidth is the encoded size of each fixed-width scalar op.
var fixedWidth = [...]int{opBool: 1, op8: 1, op16: 2, op32: 4, op64: 8, opF32: 4, opInt: 8, opUint: 8}

// littleEndian hosts store a plain scalar (see plain) exactly as the
// wire format writes it, so contiguous plain fields copy as one block.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// plain reports whether o's memory image is its encoding on a
// little-endian host: not a float32, which the codec passes through
// float64, nor a platform int narrower than its 8 wire bytes.
func plain(o op) bool {
	switch o.code {
	case opBool, op8, op16, op32, op64:
		return true
	case opInt, opUint:
		return unsafe.Sizeof(int(0)) == 8
	}
	return false
}

// coalesce merges adjacent plain scalars with no padding between them
// into runs, on a little-endian host.
func coalesce(ops []op) []op {
	if !littleEndian {
		return ops
	}
	out := ops[:0:0]
	for _, o := range ops {
		if n := len(out); n > 0 && runnable(o) && runnable(out[n-1]) {
			if last := asRun(out[n-1]); last.off+uintptr(last.n) == o.off {
				next := asRun(o)
				for _, s := range next.sub {
					s.off += uintptr(last.n)
					last.sub = append(last.sub, s)
				}
				for _, b := range next.bools {
					last.bools = append(last.bools, b+uintptr(last.n))
				}
				last.n += next.n
				out[n-1] = last
				continue
			}
		}
		out = append(out, o)
	}
	return out
}

func runnable(o op) bool { return o.code == opRun || plain(o) }

// asRun returns a run or plain scalar as a run with fresh slices.
func asRun(o op) op {
	if o.code == opRun {
		o.sub = append([]op(nil), o.sub...)
		o.bools = append([]uintptr(nil), o.bools...)
		return o
	}
	r := op{code: opRun, off: o.off, n: fixedWidth[o.code]}
	o.off = 0
	r.sub = []op{o}
	if o.code == opBool {
		r.bools = []uintptr{0}
	}
	return r
}

var (
	plans     sync.Map // reflect.Type → *plan, complete plans only
	compileMu sync.Mutex
)

// planFor returns t's plan, compiling it (and every type it reaches) on
// first use.
func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	c := compiler{seen: map[reflect.Type]*plan{}}
	p := c.compile(t)
	for len(c.pending) > 0 {
		q := c.pending[len(c.pending)-1]
		c.pending = c.pending[:len(c.pending)-1]
		c.compile(q.typ)
	}
	// Publish only once every plan reachable from t is complete.
	for _, q := range c.built {
		plans.Store(q.typ, q)
	}
	return p
}

// compiler builds the plans of one type graph. A value holds its struct
// fields and array elements inline, so those are compiled on the spot
// (inline containment cannot be cyclic); a slice or pointer element
// only needs a plan to point at, which is filled in afterwards, so a
// type that reaches itself through one compiles to a cycle of plans.
type compiler struct {
	seen    map[reflect.Type]*plan
	built   []*plan // every plan this compiler created
	pending []*plan // created but not yet compiled
}

// plan returns t's plan, possibly still empty.
func (c *compiler) plan(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if p, ok := c.seen[t]; ok {
		return p
	}
	p := &plan{typ: t, size: t.Size()}
	c.seen[t] = p
	c.built = append(c.built, p)
	c.pending = append(c.pending, p)
	return p
}

// compile returns t's complete plan.
func (c *compiler) compile(t reflect.Type) *plan {
	p := c.plan(t)
	if p.done {
		return p
	}
	p.done = true
	switch k := t.Kind(); k {
	case reflect.Bool:
		p.ops, p.minSize, p.flat = []op{{code: opBool}}, 1, true
	case reflect.Int8, reflect.Uint8:
		p.ops, p.minSize, p.flat = []op{{code: op8}}, 1, true
	case reflect.Int16, reflect.Uint16:
		p.ops, p.minSize, p.flat = []op{{code: op16}}, 2, true
	case reflect.Int32, reflect.Uint32:
		p.ops, p.minSize, p.flat = []op{{code: op32}}, 4, true
	case reflect.Int64, reflect.Uint64, reflect.Float64:
		p.ops, p.minSize, p.flat = []op{{code: op64}}, 8, true
	case reflect.Float32:
		p.ops, p.minSize, p.flat = []op{{code: opF32}}, 4, true
	case reflect.Int:
		// Platform int widens to 8 bytes so 32- and 64-bit hosts agree:
		// the width comes from the kind, never from t.Size().
		p.ops, p.minSize, p.flat = []op{{code: opInt, typ: t}}, 8, true
	case reflect.Uint:
		p.ops, p.minSize, p.flat = []op{{code: opUint, typ: t}}, 8, true
	case reflect.String:
		p.ops, p.minSize, p.flat = []op{{code: opString}}, 4, true
	case reflect.Slice:
		p.ops, p.minSize = []op{{code: opSlice, typ: t, elem: c.plan(t.Elem())}}, 4
	case reflect.Pointer:
		p.ops, p.minSize = []op{{code: opPointer, elem: c.plan(t.Elem())}}, 1
	case reflect.Array:
		e := c.compile(t.Elem())
		p.ops = []op{{code: opArray, elem: e, n: t.Len()}}
		p.minSize, p.flat = max(t.Len()*e.minSize, 1), e.flat
	case reflect.Struct:
		p.flat = true
		rejected := false // later fields are never reached
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := f.Tag.Get("snap")
			if tag != "" || !f.IsExported() {
				p.flat = false
			}
			if tag == tagSkip {
				continue
			}
			if !f.IsExported() {
				if !rejected {
					p.ops = append(p.ops, op{code: opReject,
						err: fmt.Errorf("snap: %s.%s is unexported; state fields must be exported (or tagged snap:\"-\")", t, f.Name)})
					rejected = true
				}
				continue
			}
			fp := c.compile(f.Type)
			p.minSize += fp.minSize
			p.flat = p.flat && fp.flat
			if rejected {
				continue
			}
			for _, o := range fp.ops {
				o.off += f.Offset
				p.ops = append(p.ops, o)
				rejected = rejected || o.code == opReject
			}
		}
		p.minSize = max(p.minSize, 1)
		p.ops = coalesce(p.ops)
	default:
		p.ops, p.minSize = []op{{code: opReject, err: fmt.Errorf("snap: unsupported kind %s (%s)", k, t)}}, 1
	}
	p.fixed = 0
	for _, o := range p.ops {
		switch {
		case int(o.code) < len(fixedWidth):
			p.fixed += fixedWidth[o.code]
		case o.code == opRun:
			p.fixed += o.n
		case o.code == opArray && o.elem.fixed >= 0:
			p.fixed += o.n * o.elem.fixed
		default:
			p.fixed = -1
			return p
		}
	}
	if len(p.ops) == 1 && littleEndian && p.fixed == int(p.size) {
		switch o := p.ops[0]; {
		case o.code == opRun:
			p.raw = len(o.bools) == 0
		case o.code == opArray:
			p.raw = o.elem.raw
		default:
			p.raw = plain(o) && o.code != opBool
		}
	}
	return p
}

// The ops below read and write values through unsafe pointers; the
// package doc states the invariant that keeps this sound.

// sizeOf returns the encoded size of the value at p, or the error
// encoding it would report.
func sizeOf(ops []op, p unsafe.Pointer) (int, error) {
	n := 0
	for i := range ops {
		o := &ops[i]
		q := unsafe.Add(p, o.off)
		switch o.code {
		case opString:
			n += 4 + len(*(*string)(q))
		case opSlice:
			s := *(*[]byte)(q) // the header of a []T, whatever T is
			n += 4
			if o.elem.fixed >= 0 {
				n += len(s) * o.elem.fixed
				continue
			}
			base := unsafe.Pointer(unsafe.SliceData(s))
			for j := 0; j < len(s); j++ {
				m, err := sizeOf(o.elem.ops, unsafe.Add(base, uintptr(j)*o.elem.size))
				if err != nil {
					return 0, err
				}
				n += m
			}
		case opArray:
			if o.elem.fixed >= 0 {
				n += o.n * o.elem.fixed
				continue
			}
			for j := 0; j < o.n; j++ {
				m, err := sizeOf(o.elem.ops, unsafe.Add(q, uintptr(j)*o.elem.size))
				if err != nil {
					return 0, err
				}
				n += m
			}
		case opPointer:
			n++
			if e := *(*unsafe.Pointer)(q); e != nil {
				m, err := sizeOf(o.elem.ops, e)
				if err != nil {
					return 0, err
				}
				n += m
			}
		case opRun:
			n += o.n
		case opReject:
			return 0, o.err
		default:
			n += fixedWidth[o.code]
		}
	}
	return n, nil
}

// encodeOps appends the encoding of the value at p to buf.
func encodeOps(buf []byte, ops []op, p unsafe.Pointer) ([]byte, error) {
	var err error
	for i := range ops {
		o := &ops[i]
		q := unsafe.Add(p, o.off)
		switch o.code {
		case opBool, op8:
			buf = append(buf, *(*uint8)(q)) // a bool is stored as 0 or 1
		case op16:
			buf = binary.LittleEndian.AppendUint16(buf, *(*uint16)(q))
		case op32:
			buf = binary.LittleEndian.AppendUint32(buf, *(*uint32)(q))
		case op64:
			buf = binary.LittleEndian.AppendUint64(buf, *(*uint64)(q))
		case opF32:
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(widen(*(*float32)(q)))))
		case opInt:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(*(*int)(q)))
		case opUint:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(*(*uint)(q)))
		case opString:
			s := *(*string)(q)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		case opSlice:
			s := *(*[]byte)(q)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			base := unsafe.Pointer(unsafe.SliceData(s))
			if o.elem.raw {
				buf = append(buf, unsafe.Slice((*byte)(base), uintptr(len(s))*o.elem.size)...)
				continue
			}
			for j := 0; j < len(s); j++ {
				if buf, err = encodeOps(buf, o.elem.ops, unsafe.Add(base, uintptr(j)*o.elem.size)); err != nil {
					return nil, err
				}
			}
		case opArray:
			if o.elem.raw {
				buf = append(buf, unsafe.Slice((*byte)(q), uintptr(o.n)*o.elem.size)...)
				continue
			}
			for j := 0; j < o.n; j++ {
				if buf, err = encodeOps(buf, o.elem.ops, unsafe.Add(q, uintptr(j)*o.elem.size)); err != nil {
					return nil, err
				}
			}
		case opPointer:
			e := *(*unsafe.Pointer)(q)
			if e == nil {
				buf = append(buf, 0)
				continue
			}
			buf = append(buf, 1)
			if buf, err = encodeOps(buf, o.elem.ops, e); err != nil {
				return nil, err
			}
		case opRun:
			buf = append(buf, unsafe.Slice((*byte)(q), o.n)...)
		case opReject:
			return nil, o.err
		}
	}
	return buf, nil
}

// widen is float64(f) kept out of line, so a float32 makes the same
// float64 round trip reflect's Float and SetFloat make (which quiets a
// signalling NaN) and the bytes match the reflective codec's.
//
//go:noinline
func widen(f float32) float64 { return float64(f) }

// narrow is float32(f), likewise out of line.
//
//go:noinline
func narrow(f float64) float32 { return float32(f) }

type decoder struct {
	data []byte
	off  int
}

func (d *decoder) truncated(n int) error {
	return fmt.Errorf("snap: truncated input (need %d bytes at offset %d of %d)", n, d.off, len(d.data))
}

func (d *decoder) take(n int) ([]byte, error) {
	if n < 0 || len(d.data)-d.off < n {
		return nil, d.truncated(n)
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b, nil
}

// decodeOps decodes into the value at p, reusing its slice capacity and
// pointees. A run or raw array that the remaining input cannot hold
// decodes field by field instead, so truncation reports the same field
// and offset whether or not the fields were coalesced.
func (d *decoder) decodeOps(ops []op, p unsafe.Pointer) error {
	for i := range ops {
		o := &ops[i]
		q := unsafe.Add(p, o.off)
		if o.code < opString {
			w := fixedWidth[o.code]
			if len(d.data)-d.off < w {
				return d.truncated(w)
			}
			b := d.data[d.off:]
			d.off += w
			switch o.code {
			case opBool:
				if b[0] > 1 {
					return fmt.Errorf("snap: invalid bool byte 0x%02x", b[0])
				}
				*(*uint8)(q) = b[0]
			case op8:
				*(*uint8)(q) = b[0]
			case op16:
				*(*uint16)(q) = binary.LittleEndian.Uint16(b)
			case op32:
				*(*uint32)(q) = binary.LittleEndian.Uint32(b)
			case op64:
				*(*uint64)(q) = binary.LittleEndian.Uint64(b)
			case opF32:
				*(*float32)(q) = narrow(float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))
			case opInt:
				n := int64(binary.LittleEndian.Uint64(b))
				if int64(int(n)) != n {
					return fmt.Errorf("snap: value %d overflows %s", n, o.typ)
				}
				*(*int)(q) = int(n)
			case opUint:
				n := binary.LittleEndian.Uint64(b)
				if uint64(uint(n)) != n {
					return fmt.Errorf("snap: value %d overflows %s", n, o.typ)
				}
				*(*uint)(q) = uint(n)
			}
			continue
		}
		switch o.code {
		case opRun:
			if len(d.data)-d.off < o.n {
				if err := d.decodeOps(o.sub, q); err != nil {
					return err
				}
				continue
			}
			b := d.data[d.off : d.off+o.n]
			for _, at := range o.bools {
				if b[at] > 1 {
					return fmt.Errorf("snap: invalid bool byte 0x%02x", b[at])
				}
			}
			copy(unsafe.Slice((*byte)(q), o.n), b)
			d.off += o.n
		case opString:
			b, err := d.take(4)
			if err != nil {
				return err
			}
			if b, err = d.take(int(binary.LittleEndian.Uint32(b))); err != nil {
				return err
			}
			*(*string)(q) = string(b)
		case opSlice:
			b, err := d.take(4)
			if err != nil {
				return err
			}
			n := int(binary.LittleEndian.Uint32(b))
			// Every element costs at least minSize bytes of input, so a
			// length the remaining input cannot hold is corruption —
			// reject it before allocating. This bounds what a crafted
			// prefix can allocate to a small multiple of the input's size
			// (and lets raw elements copy without a further check).
			if n > (len(d.data)-d.off)/o.elem.minSize {
				return fmt.Errorf("snap: slice length %d exceeds remaining input", n)
			}
			s := (*[]byte)(q) // the header of a []T, whatever T is
			if cap(*s) >= n {
				*s = (*s)[:n]
			} else {
				reflect.NewAt(o.typ, q).Elem().Set(reflect.MakeSlice(o.typ, n, n))
			}
			if err := d.decodeElems(o.elem, unsafe.Pointer(unsafe.SliceData(*s)), n); err != nil {
				return err
			}
		case opArray:
			if err := d.decodeElems(o.elem, q, o.n); err != nil {
				return err
			}
		case opPointer:
			b, err := d.take(1)
			if err != nil {
				return err
			}
			e := (*unsafe.Pointer)(q)
			switch b[0] {
			case 0:
				*e = nil
			case 1:
				if *e == nil {
					*e = reflect.New(o.elem.typ).UnsafePointer()
				}
				if err := d.decodeOps(o.elem.ops, *e); err != nil {
					return err
				}
			default:
				return fmt.Errorf("snap: invalid pointer flag 0x%02x", b[0])
			}
		case opReject:
			return o.err
		}
	}
	return nil
}

// decodeElems decodes n consecutive values of plan e starting at p.
func (d *decoder) decodeElems(e *plan, p unsafe.Pointer, n int) error {
	if size := n * int(e.size); e.raw && len(d.data)-d.off >= size {
		copy(unsafe.Slice((*byte)(p), size), d.data[d.off:])
		d.off += size
		return nil
	}
	for j := 0; j < n; j++ {
		if err := d.decodeOps(e.ops, unsafe.Add(p, uintptr(j)*e.size)); err != nil {
			return err
		}
	}
	return nil
}
