package memtrace

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"
)

// TestOpenSectionRoundTrip: any [start, start+n) section, of a
// many-chunk or a single-chunk trace, delivers exactly the serial
// reader's records for that range.
func TestOpenSectionRoundTrip(t *testing.T) {
	recs := genRecords(1000, 7)
	for name, data := range map[string][]byte{
		"64/chunk":  writeV2(t, recs, 64),
		"one chunk": writeV2(t, recs, len(recs)),
	} {
		fr, err := NewFileReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: NewFileReader: %v", name, err)
		}
		for _, sec := range [][2]uint64{{0, 1000}, {0, 0}, {17, 130}, {63, 65}, {999, 1}, {500, 500}, {1000, 0}} {
			start, n := sec[0], sec[1]
			sr, err := fr.OpenSection(start, n)
			if err != nil {
				t.Fatalf("%s: OpenSection(%d, %d): %v", name, start, n, err)
			}
			got, err := drain(sr)
			if err != nil {
				t.Fatalf("%s: section [%d,%d): %v", name, start, start+n, err)
			}
			want := recs[start : start+n]
			if uint64(len(got)) != n {
				t.Fatalf("%s: section [%d,%d) delivered %d records", name, start, start+n, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: section [%d,%d) record %d = %+v, want %+v", name, start, start+n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestOpenSectionConcurrent: sections of one shared file decode
// correctly from many goroutines at once (run under -race in CI), and
// concurrently with the parent's own sequential reads.
func TestOpenSectionConcurrent(t *testing.T) {
	recs := genRecords(4096, 11)
	data := writeV2(t, recs, 100)
	fr, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewFileReader: %v", err)
	}
	const parts = 16
	per := uint64(len(recs) / parts)
	var wg sync.WaitGroup
	errs := make([]error, parts)
	got := make([][]Record, parts)
	for p := 0; p < parts; p++ {
		sr, err := fr.OpenSection(uint64(p)*per, per)
		if err != nil {
			t.Fatalf("OpenSection part %d: %v", p, err)
		}
		wg.Add(1)
		go func(p int, sr *FileReader) {
			defer wg.Done()
			got[p], errs[p] = drain(sr)
		}(p, sr)
	}
	// The parent keeps streaming while sections read.
	parent, parentErr := drain(fr)
	wg.Wait()
	if parentErr != nil {
		t.Fatalf("parent drain: %v", parentErr)
	}
	if !reflect.DeepEqual(parent, recs) {
		t.Fatal("parent records diverged while sections were open")
	}
	var joined []Record
	for p := 0; p < parts; p++ {
		if errs[p] != nil {
			t.Fatalf("part %d: %v", p, errs[p])
		}
		joined = append(joined, got[p]...)
	}
	if !reflect.DeepEqual(joined, recs) {
		t.Fatal("concatenated sections diverge from the serial trace")
	}
}

// TestOpenSectionBounds: out-of-range sections fail instead of
// clamping silently.
func TestOpenSectionBounds(t *testing.T) {
	data := writeV2(t, genRecords(100, 3), 16)
	fr, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewFileReader: %v", err)
	}
	if _, err := fr.OpenSection(101, 0); err == nil {
		t.Fatal("section starting past the trace succeeded")
	}
	if _, err := fr.OpenSection(50, 51); err == nil {
		t.Fatal("section overrunning the trace succeeded")
	}
}

// TestOpenSectionNeedsReaderAt: a reader without random access cannot
// mint sections, and says so. Embedding only the io.ReadSeeker face of
// a bytes.Reader hides its ReadAt method.
func TestOpenSectionNeedsReaderAt(t *testing.T) {
	data := writeV2(t, genRecords(10, 1), 4)
	type rs struct{ io.ReadSeeker }
	fr, err := NewFileReader(rs{bytes.NewReader(data)})
	if err != nil {
		t.Fatalf("NewFileReader: %v", err)
	}
	if _, err := fr.OpenSection(0, 10); err == nil {
		t.Fatal("OpenSection on a non-ReaderAt succeeded")
	}
}

// TestSectionSkipRecords: skipping inside a section clamps at the
// section end, not the trace end.
func TestSectionSkipRecords(t *testing.T) {
	recs := genRecords(300, 5)
	fr, err := NewFileReader(bytes.NewReader(writeV2(t, recs, 32)))
	if err != nil {
		t.Fatalf("NewFileReader: %v", err)
	}
	sr, err := fr.OpenSection(100, 50)
	if err != nil {
		t.Fatalf("OpenSection: %v", err)
	}
	if k, err := sr.SkipRecords(10); err != nil || k != 10 {
		t.Fatalf("SkipRecords(10) = %d, %v", k, err)
	}
	if rec, ok := sr.Next(); !ok || rec != recs[110] {
		t.Fatalf("after skip: %+v, want %+v", rec, recs[110])
	}
	if k, err := sr.SkipRecords(1000); err != nil || k != 39 {
		t.Fatalf("SkipRecords(1000) = %d, %v (want clamp to 39)", k, err)
	}
	if _, ok := sr.Next(); ok {
		t.Fatal("section yielded past its end")
	}
}
