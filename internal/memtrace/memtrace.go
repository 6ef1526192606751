// Package memtrace defines the memory-reference trace format shared by
// the workload generators, the cache models, and the timing simulator.
//
// A trace is a stream of Record values. Each record is one last-level
// (L2) cache miss arriving at the DRAM cache: the physical address,
// the program counter of the instruction that issued it (the paper's
// predictor is indexed by PC & offset, §3.1), the core it came from,
// and whether it is a read or a write.
//
// Traces can live in memory (Slice) or on disk in the chunked binary
// trace format (format.go: WriterV2 writes it, Reader streams it,
// FileReader seeks in it), and are always consumed through the Source
// interface so cache models do not care where records come from.
package memtrace

import (
	"errors"
	"fmt"

	"fpcache/internal/fault"
)

// corruptf builds a trace-corruption error carrying the taxonomy
// sentinel, so sweep layers classify it (fault.ClassCorruptTrace)
// without matching message strings. Args may include a wrapped cause
// via %w; if that cause already carries the sentinel (a nested
// corruptf), it is not appended again.
func corruptf(format string, args ...any) error {
	//fplint:ignore faulterr message-prefix step of the wrapping helper itself; the sentinel is attached just below
	err := fmt.Errorf("memtrace: "+format, args...)
	if errors.Is(err, fault.ErrCorruptTrace) {
		return err
	}
	return fmt.Errorf("%w: %w", err, fault.ErrCorruptTrace)
}

// Addr is a physical byte address.
type Addr uint64

// PC is an instruction address.
type PC uint64

// Record is a single memory reference at the DRAM-cache level.
type Record struct {
	PC    PC
	Addr  Addr
	Core  uint8
	Write bool
	// Gap is the number of non-memory instructions the issuing core
	// executed since its previous record; the timing model converts it
	// to compute cycles between memory requests.
	Gap uint32
}

// Source yields trace records until exhaustion.
type Source interface {
	// Next returns the next record. ok is false when the trace is
	// exhausted.
	Next() (rec Record, ok bool)
}

// Slice is an in-memory trace.
type Slice struct {
	Records []Record
	pos     int
}

// NewSlice wraps records in a Source.
func NewSlice(records []Record) *Slice { return &Slice{Records: records} }

// Next implements Source.
func (s *Slice) Next() (Record, bool) {
	if s.pos >= len(s.Records) {
		return Record{}, false
	}
	r := s.Records[s.pos]
	s.pos++
	return r, true
}

// Reset rewinds the slice so it can be replayed.
func (s *Slice) Reset() { s.pos = 0 }

// Collect drains a source into memory, up to max records (max <= 0
// means unbounded).
func Collect(src Source, max int) []Record {
	var out []Record
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Limit wraps a source, truncating it after N records. N <= 0 means
// unbounded — the same convention as Collect's max — so an accidental
// zero limit passes the source through instead of silently yielding an
// empty trace.
type Limit struct {
	Src  Source
	N    int
	seen int
}

// Next implements Source.
func (l *Limit) Next() (Record, bool) {
	if l.N > 0 && l.seen >= l.N {
		return Record{}, false
	}
	r, ok := l.Src.Next()
	if !ok {
		return Record{}, false
	}
	l.seen++
	return r, true
}

// Skip discards up to n records from src, returning how many were
// skipped (fewer than n only when the source is exhausted or fails;
// a failing source reports why through its Err). Sources that support
// random access (FileReader) skip by seeking instead of decoding.
func Skip(src Source, n int) int {
	if n <= 0 {
		return 0
	}
	if s, ok := src.(interface{ SkipRecords(int) (int, error) }); ok {
		k, _ := s.SkipRecords(n)
		return k
	}
	for i := 0; i < n; i++ {
		if _, ok := src.Next(); !ok {
			return i
		}
	}
	return n
}
