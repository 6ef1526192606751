// Package profiling gives the command-line tools their -cpuprofile,
// -memprofile and -exectrace flags: a CPU profile of the whole run and
// a heap profile taken when it ends, both in pprof format, and an
// execution trace of the run (runtime/trace).
//
//	fpsim -mode timing -cpuprofile cpu.pprof -memprofile mem.pprof
//	go tool pprof -top cpu.pprof
//	fpsim -mode timing -exectrace run.trace
//	go tool trace run.trace
package profiling

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the profile and trace destinations; an empty path
// disables that output.
type Flags struct {
	CPU, Mem, Trace string
}

// Register defines -cpuprofile, -memprofile and -exectrace on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run to FILE")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile at the end of the run to FILE")
	fs.StringVar(&f.Trace, "exectrace", "", "write an execution trace of the run to FILE (go tool trace)")
	return f
}

// Start begins CPU profiling and execution tracing when requested.
// The returned stop ends them and writes the heap profile; call it
// once, when the run is over, also on paths that exit early (os.Exit
// skips deferred calls).
func (f *Flags) Start() (stop func() error, err error) {
	var cpu, tr *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if f.Trace != "" {
		if tr, err = startTrace(f.Trace); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if tr != nil {
			trace.Stop()
			errs = append(errs, tr.Close())
		}
		if f.Mem != "" {
			errs = append(errs, writeHeap(f.Mem))
		}
		return errors.Join(errs...)
	}, nil
}

// startTrace starts the execution tracer writing to a new file at
// path.
func startTrace(path string) (*os.File, error) {
	out, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := trace.Start(out); err != nil {
		out.Close()
		return nil, err
	}
	return out, nil
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
