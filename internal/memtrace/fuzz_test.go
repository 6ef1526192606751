package memtrace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"fpcache/internal/fault"
)

// FuzzRoundTrip drives arbitrary records through the binary encoding:
// whatever WriterV2 emits, the streaming Reader and the seekable
// FileReader must both return verbatim. One record per chunk makes
// every record cross a chunk boundary, where the delta baselines
// reset.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x400123), uint64(0x7f001240), uint8(3), true, uint32(17))
	f.Add(uint64(0), uint64(0), uint8(0), false, uint32(0))
	f.Add(^uint64(0), ^uint64(0), uint8(255), true, ^uint32(0))
	f.Fuzz(func(t *testing.T, pc, addr uint64, core uint8, write bool, gap uint32) {
		recs := []Record{
			{PC: PC(pc), Addr: Addr(addr), Core: core, Write: write, Gap: gap},
			{PC: PC(addr), Addr: Addr(pc), Core: ^core, Write: !write, Gap: gap ^ 0x5555},
			{PC: PC(pc ^ addr), Addr: Addr(addr + 64), Core: core, Write: write, Gap: gap >> 1},
		}
		for _, chunk := range []int{1, DefaultChunkRecords} {
			data := writeV2(t, recs, chunk)
			r := NewReader(bytes.NewReader(data))
			for i, want := range recs {
				got, ok := r.Next()
				if !ok {
					t.Fatalf("chunk %d: record %d: stream ended early (err %v)", chunk, i, r.Err())
				}
				if got != want {
					t.Fatalf("chunk %d: record %d: %+v round-tripped to %+v", chunk, i, want, got)
				}
			}
			if _, ok := r.Next(); ok {
				t.Fatal("phantom record after stream end")
			}
			if r.Err() != nil {
				t.Fatalf("clean stream reported error: %v", r.Err())
			}
			fr, err := NewFileReader(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("chunk %d: NewFileReader: %v", chunk, err)
			}
			if err := fr.Verify(); err != nil {
				t.Fatalf("chunk %d: clean trace failed verify: %v", chunk, err)
			}
			if err := fr.SeekRecord(uint64(len(recs) - 1)); err != nil {
				t.Fatal(err)
			}
			if got, ok := fr.Next(); !ok || got != recs[len(recs)-1] {
				t.Fatalf("chunk %d: seek to the last record read %+v (ok %v)", chunk, got, ok)
			}
		}
	})
}

// FuzzReaderRobust feeds arbitrary bytes to both decoders. Neither may
// panic, fabricate records, or fail with anything but a typed
// corrupt-trace error:
//
//   - the streaming Reader delivers nothing from a stream without a
//     current-version header;
//   - the seekable FileReader opens, verifies, seeks, skips and opens
//     sections without ever delivering a record past its index total,
//     and a file that passes Verify reads back exactly its index total
//     from any of those entry points — the same records the streaming
//     Reader delivers.
func FuzzReaderRobust(f *testing.F) {
	valid := func(chunk int, recs ...Record) []byte {
		var buf bytes.Buffer
		w := NewWriterV2(&buf)
		_ = w.SetChunkRecords(chunk)
		for _, r := range recs {
			_ = w.Write(r)
		}
		_ = w.Close()
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not a trace"))
	f.Add(valid(4))
	f.Add(valid(4, Record{PC: 1, Addr: 2, Core: 3, Write: true, Gap: 4}))
	// Truncated inside the first chunk's payload.
	f.Add(valid(4, Record{PC: 1, Addr: 2})[:8+3+2])
	// Several chunks, so the index and the seek paths have work to do.
	f.Add(valid(3, genRecords(10, 1)...))
	// A retired version-1 file.
	v1 := make([]byte, 8+22)
	binary.LittleEndian.PutUint32(v1[0:], magic)
	binary.LittleEndian.PutUint16(v1[4:], 1)
	f.Add(v1)
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(what string, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, fault.ErrCorruptTrace) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
		}

		r := NewReader(bytes.NewReader(data))
		stream, err := drain(r)
		typed("stream", err)
		headerOK := len(data) >= 8 &&
			binary.LittleEndian.Uint32(data[0:]) == magic &&
			binary.LittleEndian.Uint16(data[4:]) == formatVersion
		if !headerOK {
			if len(stream) != 0 {
				t.Fatalf("decoded %d records from a stream with no valid header", len(stream))
			}
			if err == nil {
				t.Fatal("invalid header accepted silently")
			}
		}

		fr, err := NewFileReader(bytes.NewReader(data))
		typed("open", err)
		if err != nil {
			return
		}
		total := fr.Len()
		verr := fr.Verify()
		typed("verify", verr)
		all, err := drain(fr)
		typed("read", err)
		if uint64(len(all)) > total {
			t.Fatalf("read %d records past an index total of %d", len(all), total)
		}
		if verr == nil && (err != nil || uint64(len(all)) != total) {
			t.Fatalf("verified trace read %d of %d records (err %v)", len(all), total, err)
		}
		if verr == nil && (r.Err() != nil || !slices.Equal(stream, all)) {
			t.Fatalf("verified trace streamed %d records (err %v), read %d", len(stream), r.Err(), len(all))
		}

		// Seek into the middle, skip, and read a section; with a clean
		// Verify each must agree with the full read.
		mid := total / 2
		if err := fr.SeekRecord(mid); err != nil {
			typed("seek", err)
		} else {
			tail, err := drain(fr)
			typed("read after seek", err)
			if uint64(len(tail)) > total-mid {
				t.Fatalf("read %d records after seeking to %d of %d", len(tail), mid, total)
			}
			if verr == nil && !slices.Equal(tail, all[mid:]) {
				t.Fatalf("seek to %d read %d records that differ from the full read", mid, len(tail))
			}
		}
		if total < math.MaxUint64 {
			err := fr.SeekRecord(total + 1)
			if err == nil {
				t.Fatalf("seek past the index total %d succeeded", total)
			}
			typed("seek past end", err)
		}
		if err := fr.SeekRecord(0); err == nil {
			k, err := fr.SkipRecords(int(mid))
			typed("skip", err)
			if verr == nil && (err != nil || uint64(k) != mid) {
				t.Fatalf("skipped %d of %d records (err %v)", k, mid, err)
			}
		} else {
			typed("seek to start", err)
		}
		sec, err := fr.OpenSection(mid, total-mid)
		typed("open section", err)
		if err != nil {
			return
		}
		part, err := drain(sec)
		typed("read section", err)
		if uint64(len(part)) > total-mid {
			t.Fatalf("section [%d, %d) read %d records", mid, total, len(part))
		}
		if verr == nil && !slices.Equal(part, all[mid:]) {
			t.Fatalf("section [%d, %d) read %d records that differ from the full read", mid, total, len(part))
		}
	})
}

// TestCorruptHeaderRejection pins the header failure modes with
// deterministic cases (the fuzz targets explore beyond them): a bad
// magic, an unknown version, and the retired version 1 all fail as
// typed corrupt traces.
func TestCorruptHeaderRejection(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriterV2(&buf)
	if err := w.Write(Record{PC: 9, Addr: 64}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	r := NewReader(bytes.NewReader(badMagic))
	if _, ok := r.Next(); ok || !errors.Is(r.Err(), fault.ErrCorruptTrace) {
		t.Fatalf("bad magic accepted (err %v)", r.Err())
	}

	for _, version := range []uint16{0xEE, 1} {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(bad[4:], version)
		r = NewReader(bytes.NewReader(bad))
		if _, ok := r.Next(); ok || !errors.Is(r.Err(), fault.ErrCorruptTrace) {
			t.Fatalf("version %d accepted (err %v)", version, r.Err())
		}
		if want := "unsupported trace version"; !strings.Contains(r.Err().Error(), want) {
			t.Fatalf("version %d: error %q does not say %q", version, r.Err(), want)
		}
	}
}
