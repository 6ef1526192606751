// Tracefile shows the on-disk trace workflow: generate a workload
// trace, write it in the chunked binary format, read it back, and
// replay it through two different cache designs — guaranteeing both see
// exactly the same reference stream (the methodology behind every
// comparison in the paper).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"fpcache"
	"fpcache/internal/memtrace"
	"fpcache/internal/sram"
	"fpcache/internal/system"
)

func main() {
	dir, err := os.MkdirTemp("", "fpcache-trace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "webfrontend.trace")

	// 1. Generate and persist a trace.
	const refs = 300_000
	src, _, err := fpcache.NewTrace(fpcache.Config{
		Workload: fpcache.WebFrontend, Refs: refs,
	})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	tw := memtrace.NewWriterV2(f)
	for i := 0; i < refs; i++ {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(rec); err != nil {
			log.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("wrote %d records (%d bytes) to %s\n", tw.Count(), fi.Size(), path)

	// 2. Replay the identical stream through two designs.
	for _, kind := range []string{system.KindPage, system.KindFootprint} {
		design, err := system.BuildDesign(system.DesignSpec{
			Kind: kind, PaperCapacityMB: 128, Scale: fpcache.DefaultScale,
		})
		if err != nil {
			log.Fatal(err)
		}
		rf, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		var rd memtrace.Source = memtrace.NewReader(rf)
		res, err := system.RunFunctional(design, rd, refs/2, refs/2)
		if err != nil {
			log.Fatal(err)
		}
		rf.Close()
		fmt.Printf("%-10s hit=%5.1f%%  off-chip bytes/ref=%6.1f  dirty evictions=%d\n",
			kind, 100*res.Counters.HitRatio(), res.OffChipBytesPerRef(), res.Counters.DirtyEvicts)
	}

	// 3. For full-hierarchy studies, an SRAM L2 model can pre-filter a
	// raw stream down to the misses a DRAM cache would actually see.
	l2, err := sram.NewCache(sram.CacheConfig{SizeBytes: 4 << 20, BlockSize: 64, Ways: 16})
	if err != nil {
		log.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	rd := memtrace.NewReader(rf)
	total, passed := 0, 0
	for {
		rec, ok := rd.Next()
		if !ok {
			break
		}
		total++
		if !l2.Access(rec.Addr, rec.Write) {
			passed++
		}
	}
	rf.Close()
	fmt.Printf("a 4MB L2 filter passes %d of %d records (%.1f%%) to the DRAM cache\n",
		passed, total, 100*float64(passed)/float64(total))
	fmt.Println("replay is deterministic: identical streams, identical comparisons")
}
