// Package snap is the deterministic binary codec behind machine
// checkpoints. It encodes a closed universe of Go values — booleans,
// fixed-width integers, floats, strings, slices, arrays, pointers to
// structs, and structs of those — into a byte stream with no framing
// ambiguity: every scalar is fixed-width little-endian, every slice and
// string is length-prefixed, and struct fields serialize in declaration
// order. Maps, channels, funcs, and interfaces are rejected so the
// encoding of a value is a pure function of that value (no iteration
// order, no wall clock, no addresses); two identical machine states
// always produce identical bytes, which is what lets checkpoint files be
// content-keyed and diffed.
//
// Fields tagged `snap:"-"` are skipped (scratch space that Restore
// rebuilds). Unexported fields are an error rather than a silent skip:
// state structs exist to be serialized, so a field the codec cannot see
// is a checkpointing bug, not a convenience.
//
// # Plans
//
// Marshal and Unmarshal do not walk values with reflect. The first use
// of a type compiles a plan for it (plan.go), cached for the life of
// the process: each struct field becomes an op at its byte offset, in
// declaration order, with nested structs inlined; on a little-endian
// host adjacent fixed-width fields with no padding between them merge
// into one copied run, and a slice or array of elements whose encoding
// is their memory image (a []uint64, an array of plain structs) is a
// single copy. A slice of cache blocks is therefore one loop over a few
// runs per block. The plan also carries the encoded size of fixed-size
// types, so Marshal sizes its result first and allocates it once, and
// the per-type minSize and flat facts that decoding and Copy consult.
// The wire format is the one the reflective walk defined and is
// unchanged (checkpoint files stay at their Version): platform int and
// uint widen to 8 bytes by their kind, never by their width in memory,
// and floats pass through float64 as reflect's accessors do. The
// reflective walk survives in the tests as the reference every plan is
// checked against, errors included.
//
// The plans read and write memory through package unsafe, and nothing
// outside this package does. The invariant that keeps it sound: an op's
// offset, code and element plan all come from the reflect.Type of the
// value its pointer addresses, and every pointer an op is handed is the
// address of a live value of that type — the caller's value, an element
// of a slice within its length or of an array, or a pointee the decoder
// allocated with reflect.New. Slice headers are read through a []byte
// view, whose layout every []T shares; slices are only ever allocated
// through reflect.
package snap

import (
	"fmt"
	"reflect"
	"slices"
	"unsafe"
)

// Marshal encodes v (a struct or pointer to struct, but any supported
// value works) into the deterministic binary form. The result is
// allocated once, at its exact size.
func Marshal(v any) ([]byte, error) {
	p, ptr, err := target(v)
	if err != nil {
		return nil, err
	}
	n, err := sizeOf(p.ops, ptr)
	if err != nil {
		return nil, err
	}
	return encodeOps(make([]byte, 0, n), p.ops, ptr)
}

// Size returns the length of Marshal(v) without encoding it.
func Size(v any) (int, error) {
	p, ptr, err := target(v)
	if err != nil {
		return 0, err
	}
	return sizeOf(p.ops, ptr)
}

// Append appends Marshal(v) to dst. It grows dst at most once, so a
// caller that sizes dst with Size writes the encoding in place.
func Append(dst []byte, v any) ([]byte, error) {
	p, ptr, err := target(v)
	if err != nil {
		return nil, err
	}
	n, err := sizeOf(p.ops, ptr)
	if err != nil {
		return nil, err
	}
	return encodeOps(slices.Grow(dst, n), p.ops, ptr)
}

// target resolves what Marshal encodes: the pointee of a pointer, or a
// copy of any other value, with its plan.
func target(v any) (*plan, unsafe.Pointer, error) {
	rv := reflect.ValueOf(v)
	switch {
	case !rv.IsValid():
		return nil, nil, fmt.Errorf("snap: cannot marshal nil")
	case rv.Kind() != reflect.Pointer:
		c := reflect.New(rv.Type())
		c.Elem().Set(rv)
		rv = c
	case rv.IsNil():
		return nil, nil, fmt.Errorf("snap: cannot marshal nil pointer")
	}
	return planFor(rv.Type().Elem()), rv.UnsafePointer(), nil
}

// Unmarshal decodes data into v, which must be a non-nil pointer to a
// value of the same type that produced the bytes. Existing slice
// capacity in *v is reused where possible. Trailing garbage and
// truncation are both errors.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("snap: unmarshal target must be a non-nil pointer, got %T", v)
	}
	d := &decoder{data: data}
	if err := d.decodeOps(planFor(rv.Type().Elem()).ops, rv.UnsafePointer()); err != nil {
		return err
	}
	if d.off != len(data) {
		return fmt.Errorf("snap: %d trailing bytes after value", len(data)-d.off)
	}
	return nil
}
