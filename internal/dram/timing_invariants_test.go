package dram

import (
	"sort"
	"testing"

	"fpcache/internal/memtrace"
	"fpcache/internal/sim"
)

// traceRun executes requests against a controller with the Trace hook
// installed and returns the committed commands.
func traceRun(t *testing.T, cfg Config, submit func(c *Controller)) ([]Cmd, *Controller) {
	t.Helper()
	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	var cmds []Cmd
	c.Trace = func(cmd Cmd) { cmds = append(cmds, cmd) }
	submit(c)
	eng.Run(nil)
	return cmds, c
}

// actsByChannel collects ACT issue times per channel, in time order.
func actsByChannel(cmds []Cmd) map[int][]sim.Cycle {
	acts := make(map[int][]sim.Cycle)
	for _, cmd := range cmds {
		if cmd.Kind == CmdActivate {
			acts[cmd.Channel] = append(acts[cmd.Channel], cmd.At)
		}
	}
	for ch := range acts {
		sort.Slice(acts[ch], func(i, j int) bool { return acts[ch][i] < acts[ch][j] })
	}
	return acts
}

// TestInvariantActivateSpacing drives a bank-conflict-free activate
// storm through one channel and asserts every committed ACT honors
// tRRD against its predecessor and tFAW against the ACT four back.
func TestInvariantActivateSpacing(t *testing.T) {
	cfg := OffChipDDR3_1600() // one channel, 8 banks
	cfg.Policy = ClosePage    // every access activates

	cmds, _ := traceRun(t, cfg, func(c *Controller) {
		for i := 0; i < 64; i++ {
			// Rotate banks so tRC never dominates the spacing.
			c.Submit(&Request{Addr: memtrace.Addr(i * 2048), Bytes: 64})
		}
	})
	rrd := sim.Cycle(cfg.cpuCycles(cfg.Timing.TRRD))
	faw := sim.Cycle(cfg.cpuCycles(cfg.Timing.TFAW))
	for _, acts := range actsByChannel(cmds) {
		if len(acts) < 8 {
			t.Fatalf("expected an activate storm, got %d ACTs", len(acts))
		}
		for i := 1; i < len(acts); i++ {
			if acts[i]-acts[i-1] < rrd {
				t.Fatalf("ACT %d at %d violates tRRD (prev %d, need +%d)", i, acts[i], acts[i-1], rrd)
			}
		}
		for i := 4; i < len(acts); i++ {
			if acts[i]-acts[i-4] < faw {
				t.Fatalf("ACT %d at %d violates tFAW (4 back at %d, need +%d)", i, acts[i], acts[i-4], faw)
			}
		}
	}
}

// TestInvariantFirstFourActivatesNotFAWDelayed is the regression for
// the tFAW misapplication: the zero-initialized activate ring must not
// delay the first activates on a channel. With an artificially huge
// tFAW, the first four activates still issue at tRRD spacing; only the
// fifth pays the window.
func TestInvariantFirstFourActivatesNotFAWDelayed(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = ClosePage
	cfg.Timing.TFAW = 1000 // absurdly wide window

	cmds, _ := traceRun(t, cfg, func(c *Controller) {
		for i := 0; i < 5; i++ {
			c.Submit(&Request{Addr: memtrace.Addr(i * 2048), Bytes: 64})
		}
	})
	acts := actsByChannel(cmds)[0]
	if len(acts) != 5 {
		t.Fatalf("expected 5 ACTs, got %d", len(acts))
	}
	faw := sim.Cycle(cfg.cpuCycles(cfg.Timing.TFAW))
	// The first four must be packed far tighter than the window...
	if spread := acts[3] - acts[0]; spread >= faw {
		t.Fatalf("first four ACTs spread %d cycles — tFAW applied to empty history", spread)
	}
	// ...and the fifth must respect it exactly against the first.
	if acts[4]-acts[0] < faw {
		t.Fatalf("fifth ACT at %d violates tFAW against first at %d", acts[4], acts[0])
	}
}

// TestInvariantConflictPrechargeHonorsTRAS opens a row and immediately
// conflicts it: the precharge must wait out tRAS from the activate.
func TestInvariantConflictPrechargeHonorsTRAS(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage

	conflict := memtrace.Addr(8 * 2048) // same bank, next row
	cmds, _ := traceRun(t, cfg, func(c *Controller) {
		if c.cfg.Decode(conflict).Bank != c.cfg.Decode(0).Bank {
			t.Fatal("test geometry wrong: banks differ")
		}
		c.Submit(&Request{Addr: 0, Bytes: 64})
		c.Submit(&Request{Addr: conflict, Bytes: 64})
	})
	ras := sim.Cycle(cfg.cpuCycles(cfg.Timing.TRAS))
	var actAt, preAt sim.Cycle
	seenAct, seenPre := false, false
	for _, cmd := range cmds {
		switch cmd.Kind {
		case CmdActivate:
			if !seenAct {
				actAt, seenAct = cmd.At, true
			}
		case CmdPrecharge:
			if !seenPre {
				preAt, seenPre = cmd.At, true
			}
		}
	}
	if !seenAct || !seenPre {
		t.Fatalf("missing commands: act=%v pre=%v in %v", seenAct, seenPre, cmds)
	}
	if preAt < actAt+ras {
		t.Fatalf("PRE at %d before ACT %d + tRAS %d", preAt, actAt, ras)
	}
}

// TestInvariantWriteToReadTurnaround: a read following a write on the
// same channel pays the bus turnaround; following another read it does
// not.
func TestInvariantWriteToReadTurnaround(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage
	// Second access goes to a different bank so bank-level write
	// recovery cannot explain the delay: only the channel-level
	// turnaround can.
	other := memtrace.Addr(2048)
	if cfg.Decode(other).Bank == cfg.Decode(0).Bank {
		t.Fatal("test geometry wrong: same bank")
	}

	after := func(firstWrite bool) sim.Cycle {
		eng := &sim.Engine{}
		c := NewController(eng, cfg)
		var last sim.Cycle
		c.Submit(&Request{Addr: 0, Bytes: 64, Write: firstWrite})
		c.Submit(&Request{Addr: other, Bytes: 64, Done: func(at sim.Cycle) { last = at }})
		eng.Run(nil)
		return last
	}
	afterWrite, afterRead := after(true), after(false)
	if afterWrite <= afterRead {
		t.Fatalf("read after write (%d) not slower than read after read (%d): tWTR not applied",
			afterWrite, afterRead)
	}
	// JEDEC semantics: tWTR spaces the read *command* from the end of
	// write data, so the read's data cannot start before write data
	// end + tWTR + tCAS — not after a bare tWTR bus gap.
	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	var writeEnd, readEnd sim.Cycle
	c.Submit(&Request{Addr: 0, Bytes: 64, Write: true, Done: func(at sim.Cycle) { writeEnd = at }})
	c.Submit(&Request{Addr: other, Bytes: 64, Done: func(at sim.Cycle) { readEnd = at }})
	eng.Run(nil)
	wtr := sim.Cycle(cfg.cpuCycles(cfg.Timing.TWTR))
	cas := sim.Cycle(cfg.cpuCycles(cfg.Timing.TCAS))
	burst := sim.Cycle(cfg.BurstCPUCycles(64))
	if readStart := readEnd - burst; readStart < writeEnd+wtr+cas {
		t.Fatalf("read data at %d, before write end %d + tWTR %d + tCAS %d: tWTR applied to data, not the command",
			readStart, writeEnd, wtr, cas)
	}
}

// TestInvariantReadToWriteTurnaround mirrors the above for tRTW.
func TestInvariantReadToWriteTurnaround(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage
	other := memtrace.Addr(2048)

	after := func(firstWrite bool) sim.Cycle {
		eng := &sim.Engine{}
		c := NewController(eng, cfg)
		var last sim.Cycle
		c.Submit(&Request{Addr: 0, Bytes: 64, Write: firstWrite})
		c.Submit(&Request{Addr: other, Bytes: 64, Write: true, Done: func(at sim.Cycle) { last = at }})
		eng.Run(nil)
		return last
	}
	afterRead, afterWrite := after(false), after(true)
	if afterRead <= afterWrite {
		t.Fatalf("write after read (%d) not slower than write after write (%d): tRTW not applied",
			afterRead, afterWrite)
	}
}

// TestInvariantNoHeadOfLineBlocking is the regression for the old
// single-wakeup scheduler: a request stalled on a row conflict (bank
// A, waiting out tRAS) must not delay a younger request to an idle
// bank B. The old model armed one wakeup for the stalled FR-FCFS pick
// and issued nothing until it fired; the reworked scheduler issues
// bank B immediately, so B completes first.
func TestInvariantNoHeadOfLineBlocking(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage

	conflict := memtrace.Addr(8 * 2048) // bank of addr 0, different row
	idleBank := memtrace.Addr(2048)     // a different bank
	if cfg.Decode(conflict).Bank != cfg.Decode(0).Bank || cfg.Decode(idleBank).Bank == cfg.Decode(0).Bank {
		t.Fatal("test geometry wrong")
	}

	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	var order []string
	var conflictDone, idleDone sim.Cycle
	c.Submit(&Request{Addr: 0, Bytes: 64})
	c.Submit(&Request{Addr: conflict, Bytes: 64, Done: func(at sim.Cycle) {
		order = append(order, "conflict")
		conflictDone = at
	}})
	c.Submit(&Request{Addr: idleBank, Bytes: 64, Done: func(at sim.Cycle) {
		order = append(order, "idle-bank")
		idleDone = at
	}})
	eng.Run(nil)

	if len(order) != 2 || order[0] != "idle-bank" {
		t.Fatalf("completion order %v: stalled conflict blocked an issuable bank", order)
	}
	if idleDone >= conflictDone {
		t.Fatalf("idle-bank request (%d) did not finish before the stalled conflict (%d)", idleDone, conflictDone)
	}
}

// TestInvariantRowHitKeepsBusPriorityOverConflict: a ready row hit
// whose data slot is merely bus-delayed must issue before a row
// conflict on another bank, even though the conflict's precharge
// could start earlier — arbitration follows data-slot order, so a
// conflict's long transfer cannot reserve the bus ahead of the hit.
func TestInvariantRowHitKeepsBusPriorityOverConflict(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage

	bankA := memtrace.Addr(0)
	bankB := memtrace.Addr(2048)
	conflictA := memtrace.Addr(8 * 2048) // bank A, different row
	if cfg.Decode(conflictA).Bank != cfg.Decode(bankA).Bank || cfg.Decode(bankB).Bank == cfg.Decode(bankA).Bank {
		t.Fatal("test geometry wrong")
	}

	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	// Open both rows.
	c.Submit(&Request{Addr: bankA, Bytes: 64})
	c.Submit(&Request{Addr: bankB, Bytes: 64})
	eng.Run(nil)
	// A 2KB row conflict on bank A races a 64B row hit on bank B.
	var hitDone, confDone sim.Cycle
	c.Submit(&Request{Addr: conflictA, Bytes: 2048, Done: func(at sim.Cycle) { confDone = at }})
	c.Submit(&Request{Addr: bankB + 64, Bytes: 64, Done: func(at sim.Cycle) { hitDone = at }})
	eng.Run(nil)
	if hitDone >= confDone {
		t.Fatalf("row hit (%d) finished after the conflict's 2KB transfer (%d): conflict reserved the bus first",
			hitDone, confDone)
	}
}

// TestInvariantStreamedReadHoldsRowOpen: a multi-burst read must keep
// its row open until the payload has streamed — the following conflict
// cannot precharge mid-transfer.
func TestInvariantStreamedReadHoldsRowOpen(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage
	conflict := memtrace.Addr(8 * 2048) // same bank, different row

	cmds, _ := traceRun(t, cfg, func(c *Controller) {
		c.Submit(&Request{Addr: 0, Bytes: 2048}) // 32-burst stream
		c.Submit(&Request{Addr: conflict, Bytes: 64})
	})
	var streamEnd sim.Cycle
	eng := &sim.Engine{}
	c2 := NewController(eng, cfg)
	c2.Submit(&Request{Addr: 0, Bytes: 2048, Done: func(at sim.Cycle) { streamEnd = at }})
	eng.Run(nil)

	burst := sim.Cycle(cfg.BurstCPUCycles(64))
	cas := sim.Cycle(cfg.cpuCycles(cfg.Timing.TCAS))
	rtp := sim.Cycle(cfg.cpuCycles(cfg.Timing.TRTP))
	lastCasMin := streamEnd - burst - cas // final column command of the stream
	for _, cmd := range cmds {
		if cmd.Kind == CmdPrecharge {
			if cmd.At < lastCasMin+rtp {
				t.Fatalf("PRE at %d closed the row mid-stream (last CAS ~%d, tRTP %d)",
					cmd.At, lastCasMin, rtp)
			}
			return
		}
	}
	t.Fatal("no precharge observed for the conflict")
}

// TestInvariantBankOverlap: two activating requests to different banks
// must overlap their row cycles rather than serialize.
func TestInvariantBankOverlap(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = ClosePage

	finish := func(addrs []memtrace.Addr) sim.Cycle {
		eng := &sim.Engine{}
		c := NewController(eng, cfg)
		var last sim.Cycle
		for _, a := range addrs {
			c.Submit(&Request{Addr: a, Bytes: 64, Done: func(at sim.Cycle) {
				if at > last {
					last = at
				}
			}})
		}
		eng.Run(nil)
		return last
	}

	one := finish([]memtrace.Addr{0})
	two := finish([]memtrace.Addr{0, 2048}) // different banks
	if two >= 2*one {
		t.Fatalf("two-bank batch (%d) serialized against single (%d)", two, one)
	}
}

// TestInvariantRefreshHappensPeriodically: a long run performs roughly
// cycles/tREFI refreshes per channel and still completes all requests.
func TestInvariantRefreshHappensPeriodically(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage
	cfg.Timing.TREFI = 200 // tiny interval so a short run refreshes often
	cfg.Timing.TRFC = 40

	done := 0
	cmds, c := traceRun(t, cfg, func(c *Controller) {
		for i := 0; i < 200; i++ {
			c.Submit(&Request{Addr: memtrace.Addr(i % 16 * 2048), Bytes: 64,
				Done: func(sim.Cycle) { done++ }})
		}
	})
	if done != 200 {
		t.Fatalf("completed %d of 200 with refresh enabled", done)
	}
	if c.Stats.Refreshes == 0 {
		t.Fatal("no refreshes recorded")
	}
	refs := 0
	var lastRef sim.Cycle
	refi := sim.Cycle(cfg.cpuCycles(cfg.Timing.TREFI))
	for _, cmd := range cmds {
		if cmd.Kind == CmdRefresh {
			if refs > 0 && cmd.At < lastRef+refi/2 {
				t.Fatalf("refreshes %d cycles apart, interval %d", cmd.At-lastRef, refi)
			}
			lastRef = cmd.At
			refs++
		}
	}
	if uint64(refs) != c.Stats.Refreshes {
		t.Fatalf("trace saw %d refreshes, stats %d", refs, c.Stats.Refreshes)
	}
}

// TestInvariantRefreshDisabled: TREFI <= 0 turns the refresh engine
// off entirely.
func TestInvariantRefreshDisabled(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Timing.TREFI = 0
	_, c := traceRun(t, cfg, func(c *Controller) {
		for i := 0; i < 100; i++ {
			c.Submit(&Request{Addr: memtrace.Addr(i * 64), Bytes: 64})
		}
	})
	if c.Stats.Refreshes != 0 {
		t.Fatalf("refreshes with TREFI=0: %d", c.Stats.Refreshes)
	}
}

// TestInvariantWriteQueueDrains: posted writes below the drain
// threshold still complete once the channel goes idle, and a flood of
// writes above the threshold drains in bursts.
func TestInvariantWriteQueueDrains(t *testing.T) {
	cfg := StackedDDR3_3200()
	done := 0
	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	// Two writes: far below any threshold; must still complete.
	c.Submit(&Request{Addr: 0, Bytes: 64, Write: true, Done: func(sim.Cycle) { done++ }})
	c.Submit(&Request{Addr: 4096, Bytes: 64, Write: true, Done: func(sim.Cycle) { done++ }})
	eng.Run(nil)
	if done != 2 {
		t.Fatalf("opportunistic drain incomplete: %d of 2", done)
	}
	if c.QueueDepth() != 0 {
		t.Fatalf("queue not drained: %d", c.QueueDepth())
	}
}

// TestInvariantReadLatencyHistogram: the controller's read-latency
// histogram sees every read exactly once.
func TestInvariantReadLatencyHistogram(t *testing.T) {
	cfg := OffChipDDR3_1600()
	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	for i := 0; i < 40; i++ {
		c.Submit(&Request{Addr: memtrace.Addr(i * 4096), Bytes: 64, Write: i%4 == 0})
	}
	eng.Run(nil)
	if got := c.ReadLatency.Total(); got != 30 {
		t.Fatalf("histogram saw %d reads, want 30", got)
	}
	if p50 := c.ReadLatency.Percentile(0.5); p50 <= 0 {
		t.Fatalf("p50 = %g", p50)
	}
}

// TestInvariantAccessClassCountedOncePerRequest: every request gets
// exactly one row-buffer access classification (hit, miss, or
// conflict), even when prep-ahead rows are wasted by write-drain
// flips or refresh before their column command issues.
func TestInvariantAccessClassCountedOncePerRequest(t *testing.T) {
	cfg := OffChipDDR3_1600()
	cfg.Policy = OpenPage
	cfg.WriteQueueDepth = 4 // frequent drain flips
	cfg.Timing.TREFI = 400  // refresh often (still > tRFC + tRP)
	cfg.Timing.TRFC = 40

	eng := &sim.Engine{}
	c := NewController(eng, cfg)
	const n = 400
	for i := 0; i < n; i++ {
		c.Submit(&Request{
			Addr:  memtrace.Addr(i * 7919 % (1 << 14) * 64),
			Bytes: 64,
			Write: i%3 == 0,
		})
	}
	eng.Run(nil)
	if got := c.Stats.Accesses(); got != n {
		t.Fatalf("access classes counted %d times for %d requests: %+v", got, n, c.Stats)
	}
}

// TestInvariantPrepAheadReplansActivateWindow sets up one arbitration
// in which two losing banks could both activate at once: a row hit
// waits for the bus behind a 2KB transfer while two other banks hold
// row misses whose tRRD wait has just expired. Prep-ahead opens the
// first bank's row under the wait; the second must then be planned
// again against the moved activate window, so its ACT lands at least
// tRRD later rather than in the same cycle.
func TestInvariantPrepAheadReplansActivateWindow(t *testing.T) {
	cfg := OffChipDDR3_1600() // one channel, 8 banks
	cfg.Timing.TREFI = 0      // no refresh in the window
	rrd := sim.Cycle(cfg.cpuCycles(cfg.Timing.TRRD))
	wakeAt := 2 * rrd
	var eng *sim.Engine
	cmds, _ := traceRun(t, cfg, func(c *Controller) {
		for i, a := range []memtrace.Addr{0, 2048, 2 * 2048} {
			if b := cfg.Decode(a).Bank; b != i {
				t.Fatalf("test geometry wrong: %#x decodes to bank %d", a, b)
			}
		}
		eng = c.eng
		c.Submit(&Request{Addr: 0, Bytes: 2048})  // bank 0: ACT at 0, holds the bus
		c.Submit(&Request{Addr: 64, Bytes: 64})   // bank 0 row hit, waits for the bus
		c.Submit(&Request{Addr: 2048, Bytes: 64}) // bank 1, blocked by tRRD
		c.Submit(&Request{Addr: 4096, Bytes: 64}) // bank 2, blocked by tRRD
		eng.Schedule(wakeAt, func() { c.Submit(&Request{Addr: 128, Bytes: 64}) })
	})
	acts := actsByChannel(cmds)[0]
	if len(acts) != 3 {
		t.Fatalf("expected 3 ACTs, got %v", acts)
	}
	if acts[1] != wakeAt {
		t.Fatalf("bank 1 activated at %d, want %d (prepped under the bus wait)", acts[1], wakeAt)
	}
	for i := 1; i < len(acts); i++ {
		if acts[i]-acts[i-1] < rrd {
			t.Fatalf("ACTs %v: %d and %d closer than tRRD %d", acts, acts[i-1], acts[i], rrd)
		}
	}
}
