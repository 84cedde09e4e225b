package snap

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// The reflective codec below is the reference the compiled plans are
// checked against (diff_test.go, FuzzUnmarshal): a direct walk of the
// value with reflect, field by field, defining the wire format and
// every decode error. It is the codec's original implementation, kept
// in test code only.

// RefMarshal encodes v with the reflective reference codec.
func RefMarshal(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, fmt.Errorf("snap: cannot marshal nil pointer")
		}
		rv = rv.Elem()
	}
	return refEncode(nil, rv)
}

// RefUnmarshal decodes data into v with the reflective reference codec.
func RefUnmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("snap: unmarshal target must be a non-nil pointer, got %T", v)
	}
	r := &refReader{data: data}
	if err := refDecode(r, rv.Elem()); err != nil {
		return err
	}
	if r.off != len(data) {
		return fmt.Errorf("snap: %d trailing bytes after value", len(data)-r.off)
	}
	return nil
}

func refEncode(buf []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		return append(buf, b), nil
	case reflect.Int8:
		return append(buf, byte(v.Int())), nil
	case reflect.Int16:
		return binary.LittleEndian.AppendUint16(buf, uint16(v.Int())), nil
	case reflect.Int32:
		return binary.LittleEndian.AppendUint32(buf, uint32(v.Int())), nil
	case reflect.Int64, reflect.Int:
		// Platform int widens to 8 bytes so 32- and 64-bit hosts agree.
		return binary.LittleEndian.AppendUint64(buf, uint64(v.Int())), nil
	case reflect.Uint8:
		return append(buf, byte(v.Uint())), nil
	case reflect.Uint16:
		return binary.LittleEndian.AppendUint16(buf, uint16(v.Uint())), nil
	case reflect.Uint32:
		return binary.LittleEndian.AppendUint32(buf, uint32(v.Uint())), nil
	case reflect.Uint64, reflect.Uint:
		return binary.LittleEndian.AppendUint64(buf, v.Uint()), nil
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v.Float()))), nil
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float())), nil
	case reflect.String:
		s := v.String()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		return append(buf, s...), nil
	case reflect.Slice:
		n := v.Len()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		var err error
		for i := 0; i < n; i++ {
			if buf, err = refEncode(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Array:
		var err error
		for i := 0; i < v.Len(); i++ {
			if buf, err = refEncode(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, 0), nil
		}
		buf = append(buf, 1)
		return refEncode(buf, v.Elem())
	case reflect.Struct:
		t := v.Type()
		var err error
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Tag.Get("snap") == "-" {
				continue
			}
			if !f.IsExported() {
				return nil, fmt.Errorf("snap: %s.%s is unexported; state fields must be exported (or tagged snap:\"-\")", t, f.Name)
			}
			if buf, err = refEncode(buf, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("snap: unsupported kind %s (%s)", v.Kind(), v.Type())
	}
}

type refReader struct {
	data []byte
	off  int
}

func (r *refReader) take(n int) ([]byte, error) {
	if n < 0 || len(r.data)-r.off < n {
		return nil, fmt.Errorf("snap: truncated input (need %d bytes at offset %d of %d)", n, r.off, len(r.data))
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *refReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func refDecode(r *refReader, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b, err := r.take(1)
		if err != nil {
			return err
		}
		switch b[0] {
		case 0:
			v.SetBool(false)
		case 1:
			v.SetBool(true)
		default:
			return fmt.Errorf("snap: invalid bool byte 0x%02x", b[0])
		}
		return nil
	case reflect.Int8:
		b, err := r.take(1)
		if err != nil {
			return err
		}
		v.SetInt(int64(int8(b[0])))
		return nil
	case reflect.Int16:
		b, err := r.take(2)
		if err != nil {
			return err
		}
		v.SetInt(int64(int16(binary.LittleEndian.Uint16(b))))
		return nil
	case reflect.Int32:
		b, err := r.take(4)
		if err != nil {
			return err
		}
		v.SetInt(int64(int32(binary.LittleEndian.Uint32(b))))
		return nil
	case reflect.Int64, reflect.Int:
		b, err := r.take(8)
		if err != nil {
			return err
		}
		n := int64(binary.LittleEndian.Uint64(b))
		if v.OverflowInt(n) {
			return fmt.Errorf("snap: value %d overflows %s", n, v.Type())
		}
		v.SetInt(n)
		return nil
	case reflect.Uint8:
		b, err := r.take(1)
		if err != nil {
			return err
		}
		v.SetUint(uint64(b[0]))
		return nil
	case reflect.Uint16:
		b, err := r.take(2)
		if err != nil {
			return err
		}
		v.SetUint(uint64(binary.LittleEndian.Uint16(b)))
		return nil
	case reflect.Uint32:
		b, err := r.take(4)
		if err != nil {
			return err
		}
		v.SetUint(uint64(binary.LittleEndian.Uint32(b)))
		return nil
	case reflect.Uint64, reflect.Uint:
		b, err := r.take(8)
		if err != nil {
			return err
		}
		n := binary.LittleEndian.Uint64(b)
		if v.OverflowUint(n) {
			return fmt.Errorf("snap: value %d overflows %s", n, v.Type())
		}
		v.SetUint(n)
		return nil
	case reflect.Float32:
		b, err := r.take(4)
		if err != nil {
			return err
		}
		v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))
		return nil
	case reflect.Float64:
		b, err := r.take(8)
		if err != nil {
			return err
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		return nil
	case reflect.String:
		n, err := r.u32()
		if err != nil {
			return err
		}
		b, err := r.take(int(n))
		if err != nil {
			return err
		}
		v.SetString(string(b))
		return nil
	case reflect.Slice:
		n32, err := r.u32()
		if err != nil {
			return err
		}
		n := int(n32)
		// Every element costs at least minSize bytes of input, so a
		// length the remaining input cannot hold is corruption — reject
		// it before allocating. This bounds what a crafted prefix can
		// allocate to a small multiple of the input's size.
		if n > (len(r.data)-r.off)/refMinSize(v.Type().Elem()) {
			return fmt.Errorf("snap: slice length %d exceeds remaining input", n)
		}
		if v.Cap() >= n {
			v.SetLen(n)
		} else {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
		}
		for i := 0; i < n; i++ {
			if err := refDecode(r, v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := refDecode(r, v.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Pointer:
		b, err := r.take(1)
		if err != nil {
			return err
		}
		switch b[0] {
		case 0:
			v.Set(reflect.Zero(v.Type()))
			return nil
		case 1:
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			return refDecode(r, v.Elem())
		default:
			return fmt.Errorf("snap: invalid pointer flag 0x%02x", b[0])
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Tag.Get("snap") == "-" {
				continue
			}
			if !f.IsExported() {
				return fmt.Errorf("snap: %s.%s is unexported; state fields must be exported (or tagged snap:\"-\")", t, f.Name)
			}
			if err := refDecode(r, v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("snap: unsupported kind %s (%s)", v.Kind(), v.Type())
	}
}

// refMinSize is the fewest bytes a value of type t encodes to (at least 1,
// so that even a zero-size element cannot make a length prefix free).
func refMinSize(t reflect.Type) int {
	n := 0
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8, reflect.Pointer:
		n = 1
	case reflect.Int16, reflect.Uint16:
		n = 2
	case reflect.Int32, reflect.Uint32, reflect.Float32, reflect.String, reflect.Slice:
		n = 4
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Float64:
		n = 8
	case reflect.Array:
		n = t.Len() * refMinSize(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && f.Tag.Get("snap") != tagSkip {
				n += refMinSize(f.Type)
			}
		}
	}
	return max(n, 1)
}
