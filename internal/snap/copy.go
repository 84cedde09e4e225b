package snap

import (
	"fmt"
	"reflect"
	"strings"
)

// Field tags that describe how a slice's length relates to the live
// state a snapshot is restored into:
//
//   - untagged: the length is geometry, fixed when the layer was built
//     (cache blocks, predictor tables). Restore requires the snapshot to
//     have exactly the target's length.
//   - `snap:"queue"`: the length varies at run time within the capacity
//     the layer allocated at construction (the ROB-side queues, MSHR
//     heaps, FIFO buffers). Restore accepts any length up to the
//     target's capacity, so it never reallocates the pre-sized backing.
//   - `snap:"opaque"`: bytes another codec owns (a frontend's encoded
//     state). Copy copies them; Restore leaves them to their owner to
//     decode and check, and writes nothing there.
//
// Pointers are presence: a pointer that is nil in the target (a design
// without that structure) must be nil in the snapshot, and vice versa.
const (
	tagSkip   = "-"
	tagQueue  = "queue"
	tagOpaque = "opaque"
)

// Copy deep-copies *src into *dst, producing the value Unmarshal(Marshal(src))
// would, without the bytes in between. dst's slices and pointees are
// reused wherever they are large enough, so copying into the same dst
// again allocates nothing; fields tagged `snap:"-"` keep dst's values.
// Copy is how a layer's live state becomes a snapshot: the state struct
// IS the image, so there is nothing to translate.
func Copy[T any](dst, src *T) error {
	return deepCopy(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem(), false)
}

// Restore installs the snapshot *src into the live state *dst. dst's
// shape is authoritative — it was built from the configuration the
// snapshot must match — so Restore first checks every slice length and
// pointer presence in src against dst (see the field tags above) and
// writes nothing unless all of them agree. Pointers in dst are followed,
// not replaced, so a state struct that points at other layers' state
// restores those layers in place.
func Restore[T any](dst, src *T) error {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	if err := checkShape(d, s, ""); err != nil {
		return fmt.Errorf("snap: restoring %s: %w", d.Type(), err)
	}
	return deepCopy(d, s, true)
}

// RestoreBytes decodes data, the Marshal of a T, and Restores it into
// *dst.
func RestoreBytes[T any](dst *T, data []byte) error {
	var src T
	if err := Unmarshal(data, &src); err != nil {
		return err
	}
	return Restore(dst, &src)
}

// flat reports whether values of t are deep-copied by plain assignment
// (see plan.flat).
func flat(t reflect.Type) bool { return planFor(t).flat }

// deepCopy copies src into dst, reusing dst's storage where it fits;
// skipOpaque leaves `snap:"opaque"` fields alone (Restore).
func deepCopy(dst, src reflect.Value, skipOpaque bool) error {
	t := src.Type()
	if flat(t) {
		dst.Set(src)
		return nil
	}
	switch t.Kind() {
	case reflect.Slice:
		n := src.Len()
		if dst.Cap() >= n {
			dst.SetLen(n)
		} else {
			dst.Set(reflect.MakeSlice(t, n, n))
		}
		if flat(t.Elem()) {
			reflect.Copy(dst, src)
			return nil
		}
		for i := 0; i < n; i++ {
			if err := deepCopy(dst.Index(i), src.Index(i), skipOpaque); err != nil {
				return err
			}
		}
		return nil
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			if err := deepCopy(dst.Index(i), src.Index(i), skipOpaque); err != nil {
				return err
			}
		}
		return nil
	case reflect.Pointer:
		if src.IsNil() {
			dst.SetZero()
			return nil
		}
		if dst.IsNil() {
			dst.Set(reflect.New(t.Elem()))
		}
		return deepCopy(dst.Elem(), src.Elem(), skipOpaque)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if tag := f.Tag.Get("snap"); tag == tagSkip || skipOpaque && tag == tagOpaque {
				continue
			}
			if !f.IsExported() {
				return fmt.Errorf("snap: %s.%s is unexported; state fields must be exported (or tagged snap:\"-\")", t, f.Name)
			}
			if err := deepCopy(dst.Field(i), src.Field(i), skipOpaque); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("snap: unsupported kind %s (%s)", t.Kind(), t)
	}
}

// shapeError is a shape mismatch with the field path that leads to it.
type shapeError struct {
	path []string // innermost first
	msg  string
}

func (e *shapeError) Error() string {
	var b strings.Builder
	for i := len(e.path) - 1; i >= 0; i-- {
		if b.Len() > 0 && !strings.HasPrefix(e.path[i], "[") {
			b.WriteByte('.')
		}
		b.WriteString(e.path[i])
	}
	if b.Len() == 0 {
		return e.msg
	}
	return b.String() + ": " + e.msg
}

func within(err error, step string) error {
	if se, ok := err.(*shapeError); ok {
		se.path = append(se.path, step)
	}
	return err
}

// checkShape compares src's slice lengths and pointer presence with
// dst's, following the field tags; tag is the tag of the field holding
// the value.
func checkShape(dst, src reflect.Value, tag string) error {
	t := src.Type()
	if flat(t) {
		return nil
	}
	switch t.Kind() {
	case reflect.Slice:
		n := src.Len()
		switch tag {
		case tagOpaque:
			return nil
		case tagQueue:
			if n > dst.Cap() {
				return &shapeError{msg: fmt.Sprintf("snapshot holds %d entries, capacity is %d", n, dst.Cap())}
			}
			return nil
		}
		if n != dst.Len() {
			return &shapeError{msg: fmt.Sprintf("snapshot has %d entries, target has %d", n, dst.Len())}
		}
		if flat(t.Elem()) {
			return nil
		}
		for i := 0; i < n; i++ {
			if err := checkShape(dst.Index(i), src.Index(i), ""); err != nil {
				return within(err, fmt.Sprintf("[%d]", i))
			}
		}
		return nil
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			if err := checkShape(dst.Index(i), src.Index(i), ""); err != nil {
				return within(err, fmt.Sprintf("[%d]", i))
			}
		}
		return nil
	case reflect.Pointer:
		switch {
		case src.IsNil() && dst.IsNil():
			return nil
		case src.IsNil():
			return &shapeError{msg: "snapshot lacks a structure the target has"}
		case dst.IsNil():
			return &shapeError{msg: "snapshot has a structure the target lacks"}
		}
		return checkShape(dst.Elem(), src.Elem(), "")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			ftag := f.Tag.Get("snap")
			if ftag == tagSkip {
				continue
			}
			if err := checkShape(dst.Field(i), src.Field(i), ftag); err != nil {
				return within(err, f.Name)
			}
		}
		return nil
	default:
		return fmt.Errorf("snap: unsupported kind %s (%s)", t.Kind(), t)
	}
}
