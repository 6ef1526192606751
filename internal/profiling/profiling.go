// Package profiling gives the command-line tools their -cpuprofile
// and -memprofile flags: a CPU profile of the whole run and a heap
// profile taken when it ends, both in pprof format.
//
//	fpsim -mode timing -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof -top cpu.pprof
package profiling

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations; an empty path disables that
// profile.
type Flags struct {
	CPU, Mem string
}

// Register defines -cpuprofile and -memprofile on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run to FILE")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile at the end of the run to FILE")
	return f
}

// Start begins CPU profiling when requested. The returned stop ends it
// and writes the heap profile; call it once, when the run is over,
// also on paths that exit early (os.Exit skips deferred calls).
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if f.Mem != "" {
			errs = append(errs, writeHeap(f.Mem))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeap writes a heap profile, after a GC so it reflects live
// data.
func writeHeap(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
