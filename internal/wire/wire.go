// Package wire is the repo's one field-by-field byte codec: what a fleet
// segment record and every component blob inside it are written with.
// Integers are varints, floats 8 little-endian bytes, strings, byte
// sections and float runs prefixed by a uvarint count. Nothing is
// self-describing or self-delimiting: a layout is the order its writer
// appends in, a blob ends where its bytes end, and the container's
// version is the only version there is.
//
// Reading is bounded and sticky: every count is checked against the bytes
// present before anything is allocated, the first malformed field zeroes
// every later read, and Done reports it — or bytes left past the last
// field — once, at the end.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// Scratch returns an empty slice to append a blob to before writing it to
// w: the spare capacity of w itself when w is a *bytes.Buffer, so the
// Write that follows copies nothing and a reused buffer allocates nothing.
func Scratch(w io.Writer) []byte {
	if bb, ok := w.(*bytes.Buffer); ok {
		return bb.AvailableBuffer()
	}
	return nil
}

// AppendSection appends a length-prefixed string or byte section.
func AppendSection[T string | []byte](b []byte, sec T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(sec))), sec...)
}

// AppendVarints appends each integer as a varint.
func AppendVarints(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// AppendFloat appends one float.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloats appends the runs as one count-prefixed run of floats, so a
// ring saves its two halves oldest-first without joining them.
func AppendFloats(b []byte, runs ...[]float64) []byte {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	b = binary.AppendUvarint(b, uint64(n))
	for _, run := range runs {
		for _, v := range run {
			b = AppendFloat(b, v)
		}
	}
	return b
}

// AppendRows appends a count, then each row as a run of floats.
func AppendRows(b []byte, rows [][]float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		b = AppendFloats(b, row)
	}
	return b
}

// AppendTime appends t as a section of its time.MarshalBinary bytes,
// which keep its instant and zone offset; a historical offset with
// seconds, which MarshalBinary refuses, goes as UTC.
func AppendTime(b []byte, t time.Time) []byte {
	raw, err := t.MarshalBinary()
	if err != nil {
		raw, _ = t.UTC().MarshalBinary()
	}
	return AppendSection(b, raw)
}

// AppendBool appends a flag as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader consumes a blob field by field; after the first malformed field
// every read returns zero and Done says why.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads b; sections it returns alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Bytes is a blob in memory as an io.Reader that ReadFrom reads in place:
// how a recovered checkpoint section reaches its component's Load.
type Bytes []byte

func (b *Bytes) Read(p []byte) (int, error) {
	n, err := bytes.NewReader(*b).Read(p)
	*b = (*b)[n:]
	return n, err
}

// ReadFrom reads the whole of r as one blob; a read error is the Reader's
// first failure. A *Bytes is consumed without a copy: the Reader and its
// sections alias it, so a Load copies what it keeps. Any other reader that
// knows its length costs one exact allocation.
func ReadFrom(r io.Reader) Reader {
	var rd Reader
	if b, ok := r.(*Bytes); ok {
		rd.b, *b = *b, nil
		return rd
	}
	if l, ok := r.(interface{ Len() int }); ok {
		rd.b = make([]byte, l.Len())
		_, rd.err = io.ReadFull(r, rd.b)
	} else {
		rd.b, rd.err = io.ReadAll(r)
	}
	if rd.err != nil {
		rd.b = nil
	}
	return rd
}

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s truncated or malformed, %d bytes left", what, len(r.b))
	}
	r.b = nil
}

// Fail records a field's own validation error (an out-of-range value, a
// nested decode) unless an earlier read already failed.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Err returns the first malformed field so far, so a reader can stop
// before it sizes anything by a header that did not read.
func (r *Reader) Err() error { return r.err }

// Len returns the bytes not yet read: what a size that is not a count (a
// model's horizon) is held to before anything is allocated by it.
func (r *Reader) Len() int { return len(r.b) }

// Done returns the first malformed field, or an error when bytes are left
// past the last one.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d bytes past the last field", len(r.b))
	}
	return r.err
}

func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("integer")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("unsigned integer")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a varint that must fit the platform's int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.fail("integer")
		return 0
	}
	return int(v)
}

func (r *Reader) Float() float64 {
	if len(r.b) < 8 {
		r.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *Reader) Bool() bool {
	if len(r.b) < 1 || r.b[0] > 1 {
		r.fail("flag")
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// Count reads a uvarint count of items that each take at least size bytes
// and fails unless that many bytes are present, so a caller can allocate
// by it.
func (r *Reader) Count(size int) int {
	n, w := binary.Uvarint(r.b)
	if w <= 0 || n > uint64(len(r.b)-w)/uint64(size) {
		r.fail("count")
		return 0
	}
	r.b = r.b[w:]
	return int(n)
}

// Section returns the next length-prefixed run of bytes, aliasing the
// blob; an append to it copies rather than overwrite what follows.
func (r *Reader) Section() []byte {
	n := r.Count(1)
	sec := r.b[:n:n]
	r.b = r.b[n:]
	return sec
}

// Floats returns the next count-prefixed run of floats in a slice of its
// own; nil for an empty run.
func (r *Reader) Floats() []float64 { return r.FloatsTo(nil) }

// FloatsTo appends the next count-prefixed run of floats to dst, growing
// it at most once, so a reader can carve several runs from one array.
func (r *Reader) FloatsTo(dst []float64) []float64 {
	n := r.Count(8)
	dst = slices.Grow(dst, n)
	for i := range n {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:])))
	}
	r.b = r.b[8*n:]
	return dst
}

// List reads a count of items that each take at least size bytes, then
// each item with read; nil for none. List(r, 1, r.Floats) reads what
// AppendRows wrote.
func List[T any](r *Reader, size int, read func() T) []T {
	n := r.Count(size)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = read()
	}
	return out
}

// Time reads what AppendTime wrote.
func (r *Reader) Time() time.Time {
	var t time.Time
	if err := t.UnmarshalBinary(r.Section()); err != nil {
		r.Fail(err)
	}
	return t
}
