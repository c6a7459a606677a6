package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"essent"
)

// minReps keeps a median meaningful when one rep outlasts --seconds.
const minReps = 3

// repResult is one rep: set-up cost, what the run observed, and why it
// failed (nil when it passed). setup is host CPU time (this process,
// plus the compiled backend's child, which starts during set-up);
// setupWall is the wall-clock time.
type repResult struct {
	setup, setupWall time.Duration
	o                outcome
	err              error
	// selfMiB and childMiB are the rep's peak resident memory in this
	// process and in the compiled backend's child, read before it exits.
	selfMiB, childMiB float64
}

// childMeter finds the compiled backend's child process, adds the CPU it
// used so far to the set-up cost, and returns the meter for the run.
func childMeter(r *repResult, tr *tracer, parent int) (meter, []int, error) {
	kids := children()
	clock := func() time.Duration { return tasksCPU(kids) }
	started := clock()
	if started == 0 {
		return meter{}, nil, fmt.Errorf("cannot read the compiled backend child's CPU time (children %v)", kids)
	}
	r.setup += started
	return meter{tr: tr, parent: parent, childCPU: clock}, kids, nil
}

// timedRep compiles the FIRRTL text through the public facade and drives
// one rep with tracing off. The heap is collected before set-up and
// before the run, so neither pays for the garbage of the step before;
// before set-up the freed memory also goes back to the OS and the peak
// resident memory is reset, so the rep's peak is its own.
func timedRep(w *workload) repResult {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return repResult{err: fmt.Errorf("resetting peak resident memory: %w", err)}
	}
	c0, t0 := processCPU(), time.Now()
	s, err := essent.Compile(w.text, w.opts)
	r := repResult{setupWall: time.Since(t0), setup: processCPU() - c0}
	if err != nil {
		r.err = fmt.Errorf("compile: %w", err)
		return r
	}
	defer s.Close()
	m, kids := meter{parent: -1}, []int(nil)
	if w.gen != nil {
		if d := s.BackendDegradation(); d != nil {
			r.err = fmt.Errorf("compiled backend degraded at start (%s): %s", d.Cause, d.Detail)
			return r
		}
		if m, kids, err = childMeter(&r, nil, -1); err != nil {
			r.err = err
			return r
		}
	}
	runtime.GC()
	r.o, r.err = w.drive(s, m)
	r.selfMiB, r.childMiB = peakMiB([]int{os.Getpid()}), peakMiB(kids)
	if d := s.BackendDegradation(); d != nil && r.err == nil {
		r.err = fmt.Errorf("compiled backend degraded (%s at cycle %d): %s",
			d.Cause, d.Cycle, d.Detail)
	}
	if r.err == nil && r.o.traced {
		r.err = fmt.Errorf("timed rep ran with tracing on")
	}
	if r.err == nil {
		r.err = w.check(r.o)
	}
	return r
}

// ledger accumulates reps. Every rep is checked; one that errors, fails
// its reference check, degrades, or simulates a different cycle count
// than the first passing rep counts as failed.
type ledger struct {
	attempted, failed int
	errs              []string
	cycles            uint64
	// Per passing rep: set-up CPU and wall seconds, cycles per CPU and
	// per wall-clock second; per chunk: wall-clock cycles per second.
	setups, wallSetups, rates, wallRates, chunkRates []float64
	// Per passing rep: peak resident memory in MiB, in all and in the
	// compiled backend's child.
	peaks, childPeaks []float64
}

func (l *ledger) add(r repResult) bool {
	l.attempted++
	if r.err == nil && l.cycles != 0 && r.o.cycles != l.cycles {
		r.err = fmt.Errorf("simulated %d cycles, earlier reps %d", r.o.cycles, l.cycles)
	}
	if r.err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, r.err.Error())
		}
		fmt.Fprintf(os.Stderr, "rep %d failed: %v\n", l.attempted, r.err)
		return false
	}
	if l.cycles == 0 {
		l.cycles = r.o.cycles
	}
	l.setups = append(l.setups, r.setup.Seconds())
	l.wallSetups = append(l.wallSetups, r.setupWall.Seconds())
	l.rates = append(l.rates, r.o.cyclesPerSec())
	l.wallRates = append(l.wallRates, r.o.wallCyclesPerSec())
	l.chunkRates = append(l.chunkRates, r.o.chunkRates...)
	l.peaks = append(l.peaks, r.selfMiB+r.childMiB)
	l.childPeaks = append(l.childPeaks, r.childMiB)
	return true
}

func (l *ledger) passRate() float64 {
	return float64(l.attempted-l.failed) / float64(l.attempted)
}

// repeat calls rep until seconds have passed and at least n reps ran.
func repeat(seconds float64, n int, rep func()) {
	start := time.Now()
	for i := 0; i < n || time.Since(start).Seconds() < seconds; i++ {
		rep()
	}
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(w *workload, seconds float64) (*ledger, report) {
	var l ledger
	repeat(seconds, minReps, func() { l.add(timedRep(w)) })
	rep := report{
		metrics: map[string]metric{
			"sim_cycles_per_s": {median(l.rates), "cycles/s"},
			"setup_s":          {median(l.setups), "s"},
			"peak_rss_mb":      {median(l.peaks), "MiB"},
			"pass_rate":        {l.passRate(), "fraction"},
		},
		detail: map[string]any{
			"cycles_per_rep":        l.cycles,
			"sim_cycles_per_s":      timing(l.rates, false, "rep, host CPU time"),
			"wall_sim_cycles_per_s": timing(l.wallRates, false, "rep, wall clock"),
			"wall_chunk_cycles_per_s": timing(l.chunkRates, false,
				"1024-cycle chunk (SoC) or 256-cycle epoch (mac16), wall clock"),
			"setup_s":           timing(l.setups, true, "rep, host CPU time"),
			"wall_setup_s":      timing(l.wallSetups, true, "rep, wall clock"),
			"peak_rss_mb":       timing(l.peaks, true, "rep, benchmark process plus child"),
			"child_peak_rss_mb": median(l.childPeaks),
			"rep_cycles_per_s":  l.rates,
			"rep_setup_s":       l.setups,
			"fail_rate":         1 - l.passRate(),
			"errors":            l.errs,
		},
	}
	return &l, rep
}

// timing summarizes samples as a median, quartiles, and the highest
// percentile with at least ten samples beyond it, on the worse side.
func timing(xs []float64, lowerIsBetter bool, sample string) map[string]any {
	out := map[string]any{"median": median(xs), "quartiles": quartiles(xs),
		"n": len(xs), "sample": sample}
	if p, v, ok := tailPercentile(xs, lowerIsBetter); ok {
		out["tail_percentile"] = p
		out["tail_value"] = v
	}
	return out
}
