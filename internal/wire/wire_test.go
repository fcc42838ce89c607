package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func sample() []byte {
	b := binary.AppendVarint(nil, -300)
	b = binary.AppendUvarint(b, 1<<40)
	b = AppendFloat(b, math.Pi)
	b = AppendBool(b, true)
	b = AppendSection(b, "name")
	b = AppendSection(b, []byte(nil))
	b = AppendFloats(b, []float64{1, 2}, nil, []float64{3})
	return AppendFloats(b)
}

func readSample(r *Reader) []any {
	return []any{r.Varint(), r.Uvarint(), r.Float(), r.Bool(), string(r.Section()), len(r.Section()), r.Floats(), r.Floats()}
}

func TestRoundTrip(t *testing.T) {
	r := NewReader(sample())
	got := readSample(&r)
	want := []any{int64(-300), uint64(1 << 40), math.Pi, true, "name", 0, []float64{1, 2, 3}, []float64(nil)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %v, want %v", got, want)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestDamageIsStickyAndReported: cut anywhere, the reads return zeros
// from the damage on and Done says so; a byte past the last field is an
// error too.
func TestDamageIsStickyAndReported(t *testing.T) {
	whole := sample()
	for cut := 0; cut < len(whole); cut++ {
		r := NewReader(whole[:cut])
		readSample(&r)
		if err := r.Done(); err == nil {
			t.Fatalf("blob cut at %d of %d read clean", cut, len(whole))
		}
		if v := r.Varint(); v != 0 {
			t.Fatalf("a read after the damage returned %d", v)
		}
	}
	r := NewReader(append(whole, 0))
	readSample(&r)
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "past the last field") {
		t.Fatalf("a trailing byte read as %v", err)
	}
}

// TestCountsAreBoundedByTheBytesPresent: a count is believed only as far
// as the bytes behind it could hold that many items.
func TestCountsAreBoundedByTheBytesPresent(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for name, read := range map[string]func(*Reader){
		"section": func(r *Reader) { r.Section() },
		"floats":  func(r *Reader) { r.Floats() },
		"count":   func(r *Reader) { r.Count(1) },
	} {
		r := NewReader(append(huge[:len(huge):len(huge)], make([]byte, 64)...))
		read(&r)
		if r.Done() == nil {
			t.Errorf("%s believed a count of 2^64-1 over 64 bytes", name)
		}
	}
	r := NewReader(AppendFloats(nil, []float64{1, 2})[:16]) // two floats claimed, 15 bytes behind the count
	if r.Floats() != nil || r.Done() == nil {
		t.Error("a float run one byte short was read")
	}
	r = NewReader([]byte{2})
	if r.Bool(); r.Done() == nil {
		t.Error("flag byte 2 was read as a flag")
	}
	r = NewReader(nil)
	r.Fail(io.ErrUnexpectedEOF)
	if r.Done() != io.ErrUnexpectedEOF {
		t.Error("Fail did not stick")
	}
}

func TestScratchAndReadFrom(t *testing.T) {
	var buf bytes.Buffer
	buf.Grow(64)
	b := AppendSection(Scratch(&buf), "in place")
	buf.Write(b)
	if &buf.Bytes()[0] != &b[0] {
		t.Error("a blob appended to Scratch was copied by Write")
	}
	if Scratch(io.Discard) != nil {
		t.Error("Scratch of a plain writer is not nil")
	}
	for _, r := range []io.Reader{bytes.NewReader(b), io.LimitReader(bytes.NewReader(b), 64)} {
		rd := ReadFrom(r)
		if got := string(rd.Section()); got != "in place" || rd.Done() != nil {
			t.Errorf("ReadFrom(%T) read %q, %v", r, got, rd.Done())
		}
	}
	// A Bytes blob is read in place and drained; its sections cannot be
	// appended to over what follows them.
	in := Bytes(b)
	rd := ReadFrom(&in)
	if sec := rd.Section(); &sec[0] != &b[1] || cap(sec) != len(sec) || len(in) != 0 {
		t.Errorf("ReadFrom(*Bytes) copied the blob, left %d bytes unread or handed out %d bytes of capacity", len(in), cap(sec))
	}
	in = Bytes(b)
	if got, err := io.ReadAll(&in); !bytes.Equal(got, b) || err != nil || len(in) != 0 {
		t.Errorf("reading a Bytes blob through Read gave %q, %v", got, err)
	}
	rd = ReadFrom(iotest.ErrReader(io.ErrClosedPipe))
	if rd.Varint(); rd.Done() != io.ErrClosedPipe {
		t.Errorf("a failed read surfaced as %v", rd.Done())
	}
}
