package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"essent"
	"essent/internal/codegen"
	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/riscv"
	"essent/internal/sim"
)

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"boom-pchase", "r16-dhry-compiled", "mac16-vec"}

// scale sizes the stimulus. fullScale is what the benchmark measures;
// tests use a smaller one.
type scale struct {
	// programs sizes the Table II SoC programs.
	programs riscv.WorkloadConfig
	// macEpochs is the number of stimulus epochs in one mac16 rep.
	macEpochs int
}

// fullScale runs the Table II programs at the size of the repository's
// full-scale sweeps, and 64 mac16 epochs (16384 cycles) per rep.
var fullScale = scale{
	programs:  riscv.WorkloadConfig{MatmulN: 12, PchaseNodes: 512, PchaseHops: 6000, DhrystoneIters: 60},
	macEpochs: 64,
}

const (
	// socChunk is the Step size while waiting for a SoC to halt; the
	// stop fires mid-chunk, so it does not change the cycle count.
	socChunk     = 1024
	socMaxCycles = 4_000_000
	// emuMaxInstrs bounds the golden emulator run.
	emuMaxInstrs = 50_000_000
	// macEpochLen is the cycle length of one mac16 stimulus epoch.
	macEpochLen = 256
)

// outcome is what one rep observed over its timed region, which runs
// from reset release to halt (SoC) or to the end of stimulus (mac16).
type outcome struct {
	cycles uint64
	// stepCPU is this process's CPU time inside Step; childCPU is the
	// compiled backend's child CPU time over the timed region (it idles
	// between steps). stepWall is the wall-clock time inside Step.
	stepCPU, childCPU, stepWall time.Duration
	// chunkRates holds the wall-clock cycles/s of each full chunk (SoC:
	// socChunk cycles, mac16: one epoch) for the tail percentile.
	chunkRates          []float64
	loadWords           int
	loadDur             time.Duration
	before, after       essent.Stats
	vecBefore, vecAfter essent.VecStats
	// observed holds the values checked against the reference.
	observed []uint64
	// traced records whether spans were kept; mallocs counts heap
	// allocations in the timed region (traced runs only).
	traced  bool
	mallocs uint64
}

// meter is what a drive needs besides its target.
type meter struct {
	// tr keeps spans (nil: tracing off); parent is the span that step
	// spans hang under.
	tr     *tracer
	parent int
	// childCPU reads the compiled backend child's CPU time (nil for the
	// interpreter).
	childCPU func() time.Duration
}

// cyclesPerSec is simulated cycles per host CPU second spent stepping.
func (o *outcome) cyclesPerSec() float64 {
	return float64(o.cycles) / (o.stepCPU + o.childCPU).Seconds()
}

func (o *outcome) wallCyclesPerSec() float64 { return float64(o.cycles) / o.stepWall.Seconds() }

// open starts the timed region at reset release.
func (o *outcome) open(t target, m meter) {
	o.before, o.vecBefore = t.Stats(), t.VecInfo()
	o.traced = m.tr != nil
	if o.traced {
		o.mallocs = heapMallocs()
	}
	if m.childCPU != nil {
		o.childCPU = m.childCPU()
	}
}

// close ends the timed region, turning the start readings into deltas.
func (o *outcome) close(t target, m meter) {
	if m.childCPU != nil {
		o.childCPU = m.childCPU() - o.childCPU
	}
	if o.traced {
		o.mallocs = heapMallocs() - o.mallocs
	}
	o.after, o.vecAfter = t.Stats(), t.VecInfo()
	o.cycles = o.after.Cycles - o.before.Cycles
}

func heapMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// step runs n cycles inside the timed region and returns the wall time.
func (o *outcome) step(t target, m meter, n int) (time.Duration, error) {
	sp := m.tr.begin("step", m.parent)
	c0, t0 := processCPU(), time.Now()
	err := t.Step(n)
	wall := time.Since(t0)
	o.stepCPU += processCPU() - c0
	o.stepWall += wall
	m.tr.end(sp)
	return wall, err
}

func (o *outcome) peek(t target, names ...string) error {
	for _, n := range names {
		v, err := t.Peek(n)
		if err != nil {
			return err
		}
		o.observed = append(o.observed, v)
	}
	return nil
}

// driveFunc runs one rep's stimulus on a freshly compiled target.
type driveFunc func(t target, m meter) (outcome, error)

// workload is one benchmark configuration: FIRRTL text in, a stimulus
// driver, and the reference its observations must equal.
type workload struct {
	name string
	// text is the FIRRTL source handed to essent.Compile.
	text string
	opts essent.Options
	// engine is what the facade maps opts to; the traced run builds it
	// directly. gen is the compiled backend's artifact shape (nil for the
	// interpreter).
	engine sim.Options
	gen    *codegen.Options
	drive  driveFunc
	// expected is the reference observation, computed outside the timed
	// region; label names observation i in a mismatch report.
	expected []uint64
	label    func(i int) string
}

// check compares one rep's observations with the reference.
func (w *workload) check(o outcome) error {
	if len(o.observed) != len(w.expected) {
		return fmt.Errorf("reference check: %d observations, want %d",
			len(o.observed), len(w.expected))
	}
	for i, v := range o.observed {
		if v != w.expected[i] {
			return fmt.Errorf("reference check: %s = %#x, want %#x",
				w.label(i), v, w.expected[i])
		}
	}
	return nil
}

// newWorkload builds a workload's design text, stimulus and reference.
// artifactCache is the private compiled-artifact cache (compiled
// workload only).
func newWorkload(name string, seed int64, artifactCache string, sc scale) (*workload, error) {
	switch name {
	case "boom-pchase":
		w, err := socWorkload(designs.Boom(), "pchase", sc)
		if err != nil {
			return nil, err
		}
		w.name = name
		w.opts = essent.Options{Engine: essent.EngineESSENT}
		w.engine = sim.Options{Engine: sim.EngineCCSS}
		return w, nil
	case "r16-dhry-compiled":
		if artifactCache == "" {
			return nil, fmt.Errorf("%s needs a private artifact cache directory", name)
		}
		w, err := socWorkload(designs.R16(), "dhrystone", sc)
		if err != nil {
			return nil, err
		}
		w.name = name
		w.opts = essent.Options{Engine: essent.EngineESSENT, Backend: "compiled",
			ArtifactCacheDir: artifactCache}
		w.gen = &codegen.Options{Mode: codegen.ModeCCSS}
		return w, nil
	case "mac16-vec":
		return macWorkload(name, seed, sc)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// socWorkload runs a fixed Table II program on a SoC; the reference is
// the golden ISA emulator's tohost value and full data memory.
func socWorkload(cfg designs.Config, program string, sc scale) (*workload, error) {
	circ, err := designs.Build(cfg)
	if err != nil {
		return nil, err
	}
	progs, err := riscv.Workloads(sc.programs)
	if err != nil {
		return nil, err
	}
	var prog []uint32
	for _, p := range progs {
		if p.Name == program {
			prog = p.Program
		}
	}
	if prog == nil {
		return nil, fmt.Errorf("no %s program", program)
	}
	emu := riscv.NewEmu(prog, cfg.DmemWords)
	if err := emu.Run(emuMaxInstrs); err != nil {
		return nil, fmt.Errorf("golden emulator: %w", err)
	}
	expected := []uint64{uint64(emu.Tohost)}
	for _, v := range emu.Dmem {
		expected = append(expected, uint64(v))
	}
	return &workload{
		text:     firrtl.Print(circ),
		drive:    driveSoC(prog, cfg.DmemWords),
		expected: expected,
		label: func(i int) string {
			if i == 0 {
				return designs.TohostSig
			}
			return fmt.Sprintf("%s[%d]", designs.DmemName, i-1)
		},
	}, nil
}

// driveSoC loads the program, releases reset, steps until the design
// halts, then reads tohost and every data memory word.
func driveSoC(prog []uint32, dmemWords int) driveFunc {
	return func(t target, m meter) (outcome, error) {
		var o outcome
		ld := m.tr.begin("load", m.parent)
		t0 := time.Now()
		for i, w := range prog {
			if err := t.PokeMem(designs.ImemName, i, uint64(w)); err != nil {
				return o, err
			}
		}
		o.loadWords, o.loadDur = len(prog), time.Since(t0)
		m.tr.end(ld)
		if err := t.Poke("reset", 1); err != nil {
			return o, err
		}
		if err := t.Step(2); err != nil {
			return o, err
		}
		if err := t.Poke("reset", 0); err != nil {
			return o, err
		}
		o.open(t, m)
		halted := false
		for n := 0; n < socMaxCycles && !halted; n += socChunk {
			wall, err := o.step(t, m, socChunk)
			switch {
			case err == nil:
				o.chunkRates = append(o.chunkRates, socChunk/wall.Seconds())
			case isStop(err):
				halted = true
			default:
				return o, err
			}
		}
		if !halted {
			return o, fmt.Errorf("design did not halt within %d cycles", socMaxCycles)
		}
		o.close(t, m)
		if err := o.peek(t, designs.TohostSig); err != nil {
			return o, err
		}
		for a := 0; a < dmemWords; a++ {
			v, err := t.PeekMem(designs.DmemName, a)
			if err != nil {
				return o, err
			}
			o.observed = append(o.observed, v)
		}
		return o, nil
	}
}

// macEpoch is one seeded stimulus epoch: operand perturbations poked
// for the whole epoch, and how many cycles after the clear the
// accumulators are sampled (before most of them saturate).
type macEpoch struct {
	a, b  uint64
	probe int
}

// macWorkload drives the 16×16 MAC array with en held high; the
// reference is the Baseline engine's checksum/satflag under the same
// stimulus.
func macWorkload(name string, seed int64, sc scale) (*workload, error) {
	circ, err := designs.BuildMACArray(designs.MACArray())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	stim := make([]macEpoch, sc.macEpochs)
	for i := range stim {
		stim[i] = macEpoch{a: uint64(rng.Intn(256)), b: uint64(rng.Intn(256)),
			probe: 1 + rng.Intn(4)}
	}
	w := &workload{
		name:   name,
		text:   firrtl.Print(circ),
		opts:   essent.Options{Engine: essent.EngineESSENTVec, Workers: 1},
		engine: sim.Options{Engine: sim.EngineCCSSVec, Workers: 1},
		drive:  driveMAC(stim),
		label: func(i int) string {
			sig := designs.MACSumOutput
			if i%2 == 1 {
				sig = designs.MACCarryOutput
			}
			when := "after clear"
			if i%4 >= 2 {
				when = "at epoch end"
			}
			return fmt.Sprintf("epoch %d %s %s", i/4, sig, when)
		},
	}
	ref, err := essent.Compile(w.text, essent.Options{Engine: essent.EngineBaseline})
	if err != nil {
		return nil, fmt.Errorf("baseline reference: %w", err)
	}
	o, err := w.drive(ref, meter{parent: -1})
	if err != nil {
		return nil, fmt.Errorf("baseline reference: %w", err)
	}
	w.expected = o.observed
	return w, nil
}

// driveMAC holds en high and, each epoch, pokes the seeded operands,
// clears the accumulators for one cycle, samples checksum/satflag probe
// cycles later and again at the end of the epoch.
func driveMAC(stim []macEpoch) driveFunc {
	return func(t target, m meter) (outcome, error) {
		var o outcome
		var err error
		var wall time.Duration
		step := func(n int) {
			if err == nil {
				var w time.Duration
				w, err = o.step(t, m, n)
				wall += w
			}
		}
		set := func(name string, v uint64) {
			if err == nil {
				err = t.Poke(name, v)
			}
		}
		set("reset", 1)
		set(designs.MACEnInput, 1)
		set(designs.MACClrInput, 0)
		if err == nil {
			err = t.Step(1)
		}
		set("reset", 0)
		if err != nil {
			return o, err
		}
		o.open(t, m)
		for _, e := range stim {
			wall = 0
			set(designs.MACAInput, e.a)
			set(designs.MACBInput, e.b)
			set(designs.MACClrInput, 1)
			step(1)
			set(designs.MACClrInput, 0)
			step(e.probe)
			if err == nil {
				err = o.peek(t, designs.MACSumOutput, designs.MACCarryOutput)
			}
			step(macEpochLen - 1 - e.probe)
			if err == nil {
				err = o.peek(t, designs.MACSumOutput, designs.MACCarryOutput)
			}
			if err != nil {
				return o, err
			}
			o.chunkRates = append(o.chunkRates, macEpochLen/wall.Seconds())
		}
		o.close(t, m)
		return o, nil
	}
}
