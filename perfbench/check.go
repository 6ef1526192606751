package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"

	"fpcache/internal/dcache"
	"fpcache/internal/memtrace"
	"fpcache/internal/sweep"
	"fpcache/internal/synth"
	"fpcache/internal/system"
)

// expectedFS holds the pinned simulated outputs of seed 1, one file
// per size profile: workload → point label → canonical output JSON.
//
//go:embed expected/*.json
var expectedFS embed.FS

type pinnedFile map[string]map[string]json.RawMessage

func (b *bench) profileName() string {
	if b.cfg.short {
		return "short"
	}
	return "full"
}

func readPinned(path string, embedded bool) (pinnedFile, error) {
	var data []byte
	var err error
	if embedded {
		data, err = expectedFS.ReadFile(path)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	f := pinnedFile{}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// pinned returns this workload's pinned outputs, or nil when the run
// does not check them (another seed, or rewriting them).
func (b *bench) pinned() (map[string]json.RawMessage, error) {
	if b.cfg.seed != defaultSeed || b.cfg.writeExpected != "" {
		return nil, nil
	}
	var f pinnedFile
	var err error
	if b.cfg.expected != "" {
		f, err = readPinned(b.cfg.expected, false)
	} else {
		f, err = readPinned("expected/"+b.profileName()+".json", true)
	}
	if err != nil {
		return nil, err
	}
	sec := f[b.cfg.workload]
	if sec == nil {
		sec = map[string]json.RawMessage{}
	}
	return sec, nil
}

// references computes the outputs the workload's points are checked
// against beyond determinism: RunFunctional over each timing point's
// records, and the serial timing and functional runs over the trace.
// Keys are point labels (timing) or "serial-timing" /
// "serial-functional" (trace-intervals).
func (b *bench) references() (map[string]pointOut, error) {
	refs := map[string]pointOut{}
	type job struct {
		label string
		run   func() pointOut
	}
	var jobs []job
	switch b.cfg.workload {
	case wlTiming:
		for _, p := range b.points {
			jobs = append(jobs, job{p.label, func() pointOut {
				g, _, err := generator(p.profile, b.cfg.seed)
				if err != nil {
					return pointOut{err: err}
				}
				d, err := system.BuildDesign(p.spec())
				if err != nil {
					return pointOut{err: err}
				}
				res, err := system.RunFunctional(d, g, b.sz.timingWarmup, b.sz.timingRefs)
				return pointOut{fn: &res, err: err}
			}})
		}
	case wlIntervals:
		spec := b.points[0].spec()
		measured := b.sz.traceRecords - b.sz.traceWarmup
		jobs = append(jobs,
			job{"serial-timing", func() pointOut {
				prof, err := synth.ByName(synth.DataServing)
				if err != nil {
					return pointOut{err: err}
				}
				d, fr, err := b.traceDesign(spec)
				if err != nil {
					return pointOut{err: err}
				}
				res, err := system.RunTiming(d, fr, system.TimingConfig{
					Cores: prof.Cores, MLP: prof.MLP, WarmupRefs: b.sz.traceWarmup, MaxRefs: measured,
				})
				o := pointOut{tm: &res, err: err}
				if err == nil {
					o.out, o.err = timingJSON(res)
				}
				return o
			}},
			job{"serial-functional", func() pointOut {
				d, fr, err := b.traceDesign(spec)
				if err != nil {
					return pointOut{err: err}
				}
				res, err := system.RunFunctional(d, fr, b.sz.traceWarmup, measured)
				o := pointOut{fn: &res, err: err}
				if err == nil {
					o.out, o.err = json.Marshal(res)
				}
				return o
			}})
	}
	outs, err := sweep.Map(b.cfg.workers, len(jobs), func(i int) (pointOut, error) {
		return jobs[i].run(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		refs[j.label] = outs[i]
	}
	return refs, nil
}

// traceDesign builds a design and a fresh reader over the workload's
// trace.
func (b *bench) traceDesign(spec system.DesignSpec) (dcache.Design, *memtrace.FileReader, error) {
	d, err := system.BuildDesign(spec)
	if err != nil {
		return nil, nil, err
	}
	fr, err := memtrace.NewFileReader(bytes.NewReader(b.trace))
	return d, fr, err
}

// check runs the output checks over every point of every round,
// counting attempted and failed points into rep, and reports the
// interval accuracy figure. With -write-expected it stores round 0's
// outputs as the pinned outputs instead.
func (b *bench) check(rep *report, rounds [][]pointOut) error {
	pinned, err := b.pinned()
	if err != nil {
		return err
	}
	refs, err := b.references()
	if err != nil {
		return err
	}
	for _, label := range sortedKeys(refs) {
		o := refs[label]
		if o.out == nil {
			continue // a timing point's functional reference is checked through its point
		}
		rep.Attempted++
		if msg := pinnedMismatch(pinned, label, o); msg != "" {
			rep.fail("%s: %s", label, msg)
		}
	}
	for r, outs := range rounds {
		for i, o := range outs {
			rep.Attempted++
			if msg := b.checkPoint(pinned, refs, rounds[0], outs, i, o, r); msg != "" {
				rep.fail("round %d %s: %s", r, b.points[i].label, msg)
			}
		}
	}
	if b.cfg.workload == wlIntervals {
		iv, serial := rounds[0][0].tm, refs["serial-timing"].tm
		if iv != nil && serial != nil && serial.AggIPC() > 0 {
			rep.extra["interval_ipc_err_pct"] = metric{
				Value: 100 * math.Abs(iv.AggIPC()-serial.AggIPC()) / serial.AggIPC(), Unit: "%",
			}
			rep.samples["interval_ipc_err_pct"] = 1
		}
	}
	if b.cfg.writeExpected != "" {
		return b.writePinned(rounds[0], refs)
	}
	return nil
}

// checkPoint returns why point i of round r failed, or "".
func (b *bench) checkPoint(pinned map[string]json.RawMessage, refs map[string]pointOut, first, outs []pointOut, i int, o pointOut, r int) string {
	p := b.points[i]
	if o.err != nil {
		return "error: " + o.err.Error()
	}
	if r > 0 && !bytes.Equal(o.out, first[i].out) {
		return "output differs from round 0 (nondeterministic)"
	}
	if msg := pinnedMismatch(pinned, p.label, o); msg != "" {
		return msg
	}
	switch p.mode {
	case timed:
		fn := refs[p.label]
		if fn.err != nil {
			return "functional reference failed: " + fn.err.Error()
		}
		if o.tm.Counters != fn.fn.Counters || o.tm.Instructions != fn.fn.Instructions {
			return fmt.Sprintf("timing counters %+v differ from RunFunctional counters %+v", o.tm.Counters, fn.fn.Counters)
		}
	case intervalPass:
		fn := refs["serial-functional"]
		if fn.err != nil {
			return "serial functional reference failed: " + fn.err.Error()
		}
		if o.tm.Counters != fn.fn.Counters || o.tm.Instructions != fn.fn.Instructions {
			return fmt.Sprintf("merged interval counters %+v differ from the serial run %+v", o.tm.Counters, fn.fn.Counters)
		}
		if i == 0 && (o.restored != 0 || o.stored == 0) {
			return fmt.Sprintf("cold pass restored %d and stored %d checkpoints", o.restored, o.stored)
		}
		if i > 0 {
			if o.restored != outs[0].stored || o.stored != 0 {
				return fmt.Sprintf("warm pass restored %d and stored %d checkpoints, cold pass stored %d", o.restored, o.stored, outs[0].stored)
			}
			if !bytes.Equal(o.out, outs[0].out) {
				return "warm pass merge differs from the cold pass"
			}
		}
	}
	return ""
}

// pinnedMismatch compares an output with its pinned value; pinned nil
// means the run does not check pinned outputs.
func pinnedMismatch(pinned map[string]json.RawMessage, label string, o pointOut) string {
	if pinned == nil {
		return ""
	}
	if o.err != nil {
		return "error: " + o.err.Error()
	}
	want, ok := pinned[label]
	if !ok {
		return "no pinned output"
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, want); err != nil {
		return "pinned output unreadable: " + err.Error()
	}
	if !bytes.Equal(buf.Bytes(), o.out) {
		return fmt.Sprintf("output differs from pinned\n  got  %s\n  want %s", o.out, buf.Bytes())
	}
	return ""
}

// writePinned stores round 0's outputs (and the serial references) as
// this workload's pinned outputs in cfg.writeExpected.
func (b *bench) writePinned(first []pointOut, refs map[string]pointOut) error {
	if b.cfg.seed != defaultSeed {
		return fmt.Errorf("pinned outputs are for seed %d, not %d", defaultSeed, b.cfg.seed)
	}
	f, err := readPinned(b.cfg.writeExpected, false)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = pinnedFile{}, nil
	}
	if err != nil {
		return err
	}
	sec := map[string]json.RawMessage{}
	for i, o := range first {
		if o.err != nil {
			return fmt.Errorf("%s: %w", b.points[i].label, o.err)
		}
		sec[b.points[i].label] = o.out
	}
	for label, o := range refs {
		if o.out != nil {
			sec[label] = o.out
		}
	}
	f[b.cfg.workload] = sec
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.cfg.writeExpected, append(data, '\n'), 0o644)
}
