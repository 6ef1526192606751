package memtrace

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func sample(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			PC:    PC(0x400000 + i*4),
			Addr:  Addr(i * 64),
			Core:  uint8(i % 16),
			Write: i%3 == 0,
			Gap:   uint32(i % 100),
		}
	}
	return recs
}

func TestSliceSource(t *testing.T) {
	recs := sample(5)
	s := NewSlice(recs)
	got := Collect(s, 0)
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("slice roundtrip mismatch")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted slice returned a record")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r != recs[0] {
		t.Fatal("Reset did not rewind")
	}
}

func TestCollectMax(t *testing.T) {
	s := NewSlice(sample(10))
	got := Collect(s, 3)
	if len(got) != 3 {
		t.Fatalf("Collect(max=3) returned %d", len(got))
	}
}

func TestLimit(t *testing.T) {
	l := &Limit{Src: NewSlice(sample(10)), N: 4}
	if n := len(Collect(l, 0)); n != 4 {
		t.Fatalf("Limit passed %d records", n)
	}
	l2 := &Limit{Src: NewSlice(sample(2)), N: 100}
	if n := len(Collect(l2, 0)); n != 2 {
		t.Fatalf("Limit over short source passed %d", n)
	}
}

func TestWriterReaderRoundtrip(t *testing.T) {
	recs := sample(100)
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 100 {
		t.Fatalf("Count = %d", w.Count())
	}
	r := NewReader(&buf)
	got := Collect(r, 0)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("binary roundtrip mismatch")
	}
}

func TestEmptyTraceRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriterV2(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, ok := r.Next(); ok {
		t.Fatal("empty trace yielded a record")
	}
	if r.Err() != nil {
		t.Fatalf("empty trace error: %v", r.Err())
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}))
	if _, ok := r.Next(); ok {
		t.Fatal("bad magic yielded a record")
	}
	if r.Err() == nil {
		t.Fatal("bad magic produced no error")
	}
}

func TestReaderRejectsShortHeader(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2}))
	if _, ok := r.Next(); ok {
		t.Fatal("short header yielded a record")
	}
	if r.Err() == nil {
		t.Fatal("short header produced no error")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	if err := w.Write(Record{Addr: 42}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut inside the record: the 8-byte header, the chunk frame's
	// marker, record count and payload length, then 2 payload bytes.
	trunc := buf.Bytes()[:8+3+2]
	r := NewReader(bytes.NewReader(trunc))
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record decoded")
	}
	if r.Err() == nil {
		t.Fatal("truncation produced no error")
	}
}

// Property: any record survives the binary encoding.
func TestPropertyRecordRoundtrip(t *testing.T) {
	f := func(pc, addr uint64, core uint8, write bool, gap uint32) bool {
		rec := Record{PC: PC(pc), Addr: Addr(addr), Core: core, Write: write, Gap: gap}
		var buf bytes.Buffer
		w := NewWriterV2(&buf)
		if err := w.Write(rec); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		r := NewReader(&buf)
		got, ok := r.Next()
		return ok && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
