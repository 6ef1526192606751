// Command tracegen writes a synthetic workload trace to disk in the
// binary trace format, so external tools (or repeated cache studies)
// can replay identical reference streams.
//
// The format holds delta/varint-compressed records in independently
// decodable, CRC-protected chunks with a trailing chunk index, which
// seekable readers (memtrace.FileReader; fpsim -skip, -restore and
// -intervals) use to jump to any record without decoding the prefix.
// -index inspects an existing trace file; -verify is the trace fsck —
// it walks every chunk (CRC, framing, full record decode, index
// agreement) and exits non-zero naming the first corrupt chunk and
// offset.
//
// Usage:
//
//	tracegen -workload mapreduce -refs 5000000 -o mapreduce.trace
//	tracegen -index mapreduce.trace
//	tracegen -verify mapreduce.trace
//	tracegen -stats mapreduce.trace
//
// -stats summarizes a trace's chunking (chunk count, records/chunk
// histogram, bytes/record) — the inputs to picking an interval count
// for interval-parallel simulation (fpsim -intervals, DESIGN.md §11).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"fpcache"
	"fpcache/internal/memtrace"
)

func main() {
	var (
		workload = flag.String("workload", fpcache.WebSearch, "workload name")
		refs     = flag.Int("refs", 1_000_000, "number of references to emit")
		scale    = flag.Float64("scale", fpcache.DefaultScale, "capacity scale factor")
		seed     = flag.Int64("seed", 1, "random seed")
		chunk    = flag.Int("chunk", memtrace.DefaultChunkRecords, "records per chunk")
		index    = flag.String("index", "", "print the chunk index of an existing trace file and exit")
		statsIn  = flag.String("stats", "", "print chunking statistics of an existing trace file (chunk count, records/chunk histogram, bytes/record) and exit")
		verify   = flag.String("verify", "", "verify an existing trace file (chunk CRCs, framing, index) and exit")
		out      = flag.String("o", "", "output file (required)")
	)
	flag.Parse()

	if *index != "" {
		if err := printIndex(*index); err != nil {
			fail(err)
		}
		return
	}
	if *verify != "" {
		if err := verifyTrace(*verify); err != nil {
			fail(err)
		}
		return
	}
	if *statsIn != "" {
		if err := printStats(*statsIn); err != nil {
			fail(err)
		}
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -o output file is required")
		os.Exit(2)
	}

	src, _, err := fpcache.NewTrace(fpcache.Config{
		Workload: *workload, Scale: *scale, Seed: *seed, Refs: *refs,
	})
	if err != nil {
		fail(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	wrote, err := writeTrace(f, src, *refs, *chunk)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("tracegen: wrote %d records of %s to %s\n", wrote, *workload, *out)
}

// writeTrace drains up to refs records from src into w.
func writeTrace(w *os.File, src memtrace.Source, refs, chunkRecs int) (uint64, error) {
	tw := memtrace.NewWriterV2(w)
	if err := tw.SetChunkRecords(chunkRecs); err != nil {
		return 0, err
	}
	for i := 0; i < refs; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(rec); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Close()
}

// printIndex opens a trace file and reports its record count and chunk
// index.
func printIndex(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fr, err := memtrace.NewFileReader(f)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d records, %d bytes", path, fr.Len(), st.Size())
	if fr.Len() > 0 {
		fmt.Printf(" (%.2f bytes/record)", float64(st.Size())/float64(fr.Len()))
	}
	fmt.Println()
	offsets, starts, counts := fr.Chunks()
	if len(offsets) == 0 {
		return nil
	}
	fmt.Printf("%6s %12s %12s %10s\n", "chunk", "offset", "first rec", "records")
	for i := range offsets {
		fmt.Printf("%6d %12d %12d %10d\n", i, offsets[i], starts[i], counts[i])
	}
	return nil
}

// printStats reports a trace file's chunking statistics — the numbers
// that matter when picking interval sizes for interval-parallel runs
// (DESIGN.md §11): how many chunk-aligned boundaries exist, how evenly
// records spread over them, and what a record costs on disk.
func printStats(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fr, err := memtrace.NewFileReader(f)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", path)
	fmt.Printf("records:        %d\n", fr.Len())
	fmt.Printf("bytes:          %d", st.Size())
	if fr.Len() > 0 {
		fmt.Printf(" (%.2f bytes/record)", float64(st.Size())/float64(fr.Len()))
	}
	fmt.Println()
	_, _, counts := fr.Chunks()
	if len(counts) == 0 {
		fmt.Println("chunks:         none (empty trace)")
		return nil
	}
	min, max, sum := counts[0], counts[0], uint64(0)
	freq := map[uint64]int{}
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
		sum += c
		freq[c]++
	}
	fmt.Printf("chunks:         %d (%.1f records/chunk mean, min %d, max %d)\n",
		len(counts), float64(sum)/float64(len(counts)), min, max)
	sizes := make([]uint64, 0, len(freq))
	for c := range freq {
		sizes = append(sizes, c)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	fmt.Println("records/chunk histogram:")
	for _, c := range sizes {
		fmt.Printf("  %8d records x %d chunk(s)\n", c, freq[c])
	}
	return nil
}

// verifyTrace runs the full-file integrity scan and reports the
// verdict; any corruption (first bad chunk and offset) comes back as
// an error, which fail() turns into a non-zero exit.
func verifyTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fr, err := memtrace.NewFileReader(f)
	if err != nil {
		return err
	}
	if err := fr.Verify(); err != nil {
		return err
	}
	offsets, _, _ := fr.Chunks()
	fmt.Printf("%s: ok — %d records, %d chunks verified\n", path, fr.Len(), len(offsets))
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
