package memtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fpcache/internal/fault"
)

// genRecords builds a deterministic pseudo-random record stream with
// the locality structure real traces have (small address deltas with
// occasional jumps), so delta encoding is exercised in both regimes.
func genRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	pc, addr := uint64(0x400000), uint64(1<<32)
	for i := range recs {
		if rng.Intn(10) == 0 {
			addr = rng.Uint64() >> 16
			pc = 0x400000 + uint64(rng.Intn(1<<20))
		} else {
			addr += uint64(rng.Intn(4096)) - 1024
			pc += uint64(rng.Intn(64))
		}
		recs[i] = Record{
			PC:    PC(pc),
			Addr:  Addr(addr),
			Core:  uint8(rng.Intn(256)),
			Write: rng.Intn(4) == 0,
			Gap:   uint32(rng.Intn(500)),
		}
	}
	return recs
}

// writeV2 encodes records into a v2 trace with the given chunk size.
func writeV2(t *testing.T, recs []Record, chunkRecs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	if err := w.SetChunkRecords(chunkRecs); err != nil {
		t.Fatalf("SetChunkRecords: %v", err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	return buf.Bytes()
}

// drain collects every record from a source and its terminal error.
func drain(src Source) ([]Record, error) {
	var out []Record
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	type errer interface{ Err() error }
	if e, ok := src.(errer); ok {
		return out, e.Err()
	}
	return out, nil
}

func TestV2StreamRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		recs := genRecords(n, int64(n)+1)
		data := writeV2(t, recs, 64)
		got, err := drain(NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("n=%d: stream error: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: got %d records", n, len(got))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("n=%d: record %d = %+v, want %+v", n, i, got[i], recs[i])
			}
		}
	}
}

func TestV2FileReaderRoundTripAndSeek(t *testing.T) {
	recs := genRecords(1000, 7)
	data := writeV2(t, recs, 100)
	fr, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewFileReader: %v", err)
	}
	if fr.Len() != 1000 {
		t.Fatalf("Len=%d", fr.Len())
	}
	got, err := drain(fr)
	if err != nil || len(got) != 1000 {
		t.Fatalf("drain: %d records, err %v", len(got), err)
	}
	// Seek to assorted positions, including chunk boundaries and EOF.
	for _, i := range []uint64{0, 1, 99, 100, 101, 500, 999, 1000} {
		if err := fr.SeekRecord(i); err != nil {
			t.Fatalf("SeekRecord(%d): %v", i, err)
		}
		r, ok := fr.Next()
		if i == 1000 {
			if ok {
				t.Fatalf("Next after Seek(EOF) yielded %+v", r)
			}
			continue
		}
		if !ok || r != recs[i] {
			t.Fatalf("Seek(%d) -> %+v ok=%v, want %+v", i, r, ok, recs[i])
		}
	}
	if err := fr.SeekRecord(1001); err == nil {
		t.Fatal("SeekRecord beyond EOF succeeded")
	}
	// SkipRecords advances exactly and clamps at EOF.
	if err := fr.SeekRecord(0); err != nil {
		t.Fatal(err)
	}
	if k, _ := fr.SkipRecords(250); k != 250 {
		t.Fatalf("SkipRecords = %d", k)
	}
	if r, ok := fr.Next(); !ok || r != recs[250] {
		t.Fatalf("after skip: %+v ok=%v", r, ok)
	}
	if k, _ := fr.SkipRecords(10_000); k != 1000-251 {
		t.Fatalf("clamped skip = %d, want %d", k, 1000-251)
	}
}

// v1Trace is a file in the retired version-1 layout: the common
// header with version 1, then flat 22-byte records.
func v1Trace(records int) []byte {
	data := make([]byte, 8+22*records)
	binary.LittleEndian.PutUint32(data[0:], magic)
	binary.LittleEndian.PutUint16(data[4:], 1)
	return data
}

// TestCrossVersionReads pins which versions the readers accept: both
// reader types read the current format, and both reject a version-1
// file as a typed corrupt trace instead of decoding it.
func TestCrossVersionReads(t *testing.T) {
	recs := genRecords(300, 11)
	data := writeV2(t, recs, 77)
	got, err := drain(NewReader(bytes.NewReader(data)))
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("stream: %d records, err %v", len(got), err)
	}
	fr, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewFileReader: %v", err)
	}
	if got, err = drain(fr); err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("file: %d records, err %v", len(got), err)
	}

	v1 := v1Trace(10)
	got, err = drain(NewReader(bytes.NewReader(v1)))
	if len(got) != 0 || !errors.Is(err, fault.ErrCorruptTrace) || !strings.Contains(err.Error(), "unsupported trace version 1") {
		t.Fatalf("stream of a v1 file: %d records, err %v", len(got), err)
	}
	if _, err := NewFileReader(bytes.NewReader(v1)); !errors.Is(err, fault.ErrCorruptTrace) ||
		!strings.Contains(err.Error(), "unsupported trace version 1") {
		t.Fatalf("NewFileReader of a v1 file: err %v", err)
	}
}

func TestV2TruncatedChunk(t *testing.T) {
	recs := genRecords(500, 5)
	data := writeV2(t, recs, 100)
	// Cut the stream mid-chunk: streaming reads must error, not stop
	// silently.
	cut := data[:len(data)/2]
	got, err := drain(NewReader(bytes.NewReader(cut)))
	if err == nil {
		t.Fatalf("truncated stream read %d records without error", len(got))
	}
	if _, err := NewFileReader(bytes.NewReader(cut)); err == nil {
		t.Fatal("NewFileReader accepted a truncated trace")
	}
}

func TestV2CorruptPayload(t *testing.T) {
	recs := genRecords(300, 9)
	data := writeV2(t, recs, 100)
	// Flip a byte inside the first chunk's payload: the CRC must catch
	// it on both read paths.
	corrupt := append([]byte(nil), data...)
	corrupt[40] ^= 0xFF
	if _, err := drain(NewReader(bytes.NewReader(corrupt))); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("streaming read of corrupt chunk: err %v", err)
	}
	// The seekable reader hits the bad chunk either at open (it loads
	// chunk 0 eagerly) or while draining.
	fr, err := NewFileReader(bytes.NewReader(corrupt))
	if err == nil {
		_, err = drain(fr)
	}
	if err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("file read of corrupt chunk: err %v", err)
	}
}

func TestV2CorruptIndex(t *testing.T) {
	recs := genRecords(300, 13)
	data := writeV2(t, recs, 100)

	// Bad footer magic.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := NewFileReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("NewFileReader accepted a bad footer magic")
	}

	// Index size pointing outside the file.
	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[len(bad)-8:], uint32(len(bad)))
	if _, err := NewFileReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("NewFileReader accepted an oversized index")
	}

	// A lying total-record count.
	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(bad[len(bad)-16:], 12345)
	if _, err := NewFileReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("NewFileReader accepted a wrong record total")
	}
	// The streaming reader cross-checks the same total.
	if _, err := drain(NewReader(bytes.NewReader(bad))); err == nil {
		t.Fatal("streaming reader accepted a wrong record total")
	}

	// A chunk count the index frame has no room for is rejected before
	// anything is allocated for it.
	bad = make([]byte, 4096)
	binary.LittleEndian.PutUint32(bad[0:], magic)
	binary.LittleEndian.PutUint16(bad[4:], formatVersion)
	idx := binary.AppendUvarint([]byte{indexMarker}, 1000)
	copy(bad[len(bad)-footerBytes-len(idx):], idx)
	binary.LittleEndian.PutUint32(bad[len(bad)-8:], uint32(len(idx)))
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], indexMagic)
	if _, err := NewFileReader(bytes.NewReader(bad)); !errors.Is(err, fault.ErrCorruptTrace) ||
		!strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("NewFileReader of an oversized chunk count: %v", err)
	}
}

func TestSkipFallback(t *testing.T) {
	recs := genRecords(50, 17)
	s := NewSlice(recs)
	if k := Skip(s, 20); k != 20 {
		t.Fatalf("Skip = %d", k)
	}
	if r, _ := s.Next(); r != recs[20] {
		t.Fatalf("after Skip: %+v", r)
	}
	if k := Skip(s, 1000); k != 29 {
		t.Fatalf("clamped Skip = %d, want 29", k)
	}
}

func TestLimitZeroMeansUnbounded(t *testing.T) {
	recs := genRecords(10, 19)
	for _, n := range []int{0, -1} {
		l := &Limit{Src: NewSlice(recs), N: n}
		got, _ := drain(l)
		if len(got) != 10 {
			t.Fatalf("Limit{N:%d} yielded %d records, want all 10", n, len(got))
		}
	}
	l := &Limit{Src: NewSlice(recs), N: 3}
	if got, _ := drain(l); len(got) != 3 {
		t.Fatalf("Limit{N:3} yielded %d records", len(got))
	}
}

// TestVerifyCleanAndCorrupt pins the fsck path (tracegen -verify): a
// clean file verifies and stays usable; a bit flip anywhere in a chunk
// payload fails Verify with a typed corruption error naming a chunk.
func TestVerifyCleanAndCorrupt(t *testing.T) {
	recs := genRecords(500, 9)
	data := writeV2(t, recs, 64)

	fr, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Verify(); err != nil {
		t.Fatalf("clean trace failed verify: %v", err)
	}
	// Verify leaves the reader positioned at record 0.
	got, err := drain(fr)
	if err != nil || len(got) != len(recs) {
		t.Fatalf("post-verify read: %d records, err %v", len(got), err)
	}

	// Flip one bit inside the second chunk's payload.
	offsets, _, _ := fr.Chunks()
	if len(offsets) < 3 {
		t.Fatalf("want several chunks, have %d", len(offsets))
	}
	bad := append([]byte(nil), data...)
	bad[offsets[1]+8] ^= 0x10
	fr2, err := NewFileReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	verr := fr2.Verify()
	if verr == nil {
		t.Fatal("corrupt trace passed verify")
	}
	if !errors.Is(verr, fault.ErrCorruptTrace) {
		t.Fatalf("verify error does not wrap ErrCorruptTrace: %v", verr)
	}
	if !strings.Contains(verr.Error(), "chunk 1") {
		t.Fatalf("verify error does not name the corrupt chunk: %v", verr)
	}

	// Skipping into the corrupt chunk fails, and the reader keeps the
	// typed error for callers that skip through Skip.
	fr3, err := NewFileReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if k := Skip(fr3, 70); k != 0 || !errors.Is(fr3.Err(), fault.ErrCorruptTrace) {
		t.Fatalf("Skip into a corrupt chunk: skipped %d, err %v", k, fr3.Err())
	}
}

// TestVerifyRejectsRepeatedChunk: an index whose second entry points
// back at the first chunk frame opens and reads cleanly (each frame
// checks out), but replays chunk 0 as records 4-7; Verify must reject
// the layout, as the streaming reader sees different records.
func TestVerifyRejectsRepeatedChunk(t *testing.T) {
	data := writeV2(t, genRecords(8, 1), 4)
	idxSize := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	idx := data[len(data)-8-idxSize:]
	// marker, chunk count, {offset delta, records} x 2, total: every
	// varint here is one byte, so idx[4] is the second offset delta.
	if idx[0] != indexMarker || idx[1] != 2 || idx[2] != 8 || idx[3] != 4 {
		t.Fatalf("unexpected index layout % x", idx[:6])
	}
	idx[4] = 0
	fr, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	err = fr.Verify()
	if !errors.Is(err, fault.ErrCorruptTrace) || !strings.Contains(err.Error(), "chunk 1 at offset 8") {
		t.Fatalf("Verify of a repeated chunk: %v", err)
	}
}
