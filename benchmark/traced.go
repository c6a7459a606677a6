package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"essent/internal/ckpt"
	"essent/internal/codegen"
	"essent/internal/designs"
	"essent/internal/firrtl"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/partition"
	"essent/internal/sa"
	"essent/internal/sched"
	"essent/internal/serve"
	"essent/internal/sim"
	"essent/internal/verify"
)

// perLayerUnits lists every per-layer metric the traced run reports,
// with its unit. A layer a workload never calls reports 0.
var perLayerUnits = map[string]string{
	"firrtl.parse_ms":               "ms",
	"firrtl.parse_alloc_mb":         "MiB",
	"netlist.compile_ms":            "ms",
	"netlist.compile_alloc_mb":      "MiB",
	"netlist.nodes":                 "count",
	"opt.optimize_ms":               "ms",
	"opt.alloc_mb":                  "MiB",
	"opt.nodes_after":               "count",
	"sa.analyze_ms":                 "ms",
	"sa.proven_frac":                "fraction",
	"partition.partition_ms":        "ms",
	"partition.parts":               "count",
	"sched.plan_ms":                 "ms",
	"verify.plan_ms":                "ms",
	"sim.new_ms":                    "ms",
	"sim.new_self_ms":               "ms",
	"sim.new_alloc_mb":              "MiB",
	"sim.cycles":                    "cycles",
	"sim.ns_per_cycle":              "ns",
	"sim.part_checks_per_cycle":     "1/cycle",
	"sim.input_checks_per_cycle":    "1/cycle",
	"sim.part_evals_per_cycle":      "1/cycle",
	"sim.ops_per_cycle":             "1/cycle",
	"sim.output_compares_per_cycle": "1/cycle",
	"sim.wakes_per_cycle":           "1/cycle",
	"sim.eff_activity":              "fraction",
	"sim.step_allocs_per_kcycle":    "allocs/kcycle",
	"vec.groups":                    "count",
	"vec.vec_parts":                 "count",
	"vec.group_evals_per_cycle":     "1/cycle",
	"vec.lane_evals_per_cycle":      "1/cycle",
	"codegen.generate_ms":           "ms",
	"codegen.src_kb":                "KiB",
	"serve.build_ms":                "ms",
	"serve.start_ms":                "ms",
	"serve.capture_ms":              "ms",
	"serve.capture_kb":              "KiB",
	"serve.step1_us":                "us",
	"pipe.peek_rtt_us":              "us",
	"pipe.pokemem_us":               "us",
	"trace.setup_ratio":             "ratio",
	"trace.cps_ratio":               "ratio",
}

const (
	step1Probes = 20  // Step(1) round trips timed per traced compiled rep
	peekProbes  = 200 // Peek round trips timed per traced compiled rep
)

// tracedHarness builds each rep's simulator by calling the layers'
// exported entry points in the order essent.CompileCircuit calls them,
// with a span around each call.
type tracedHarness struct {
	w  *workload
	tr *tracer
	// buildMs is the one cold artifact build the run measures.
	buildMs float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// layer times fn as span name under parent (a probe span when host is
// set), storing its milliseconds under msKey and, when allocKey is set,
// the MiB it allocated. A probe starts on a collected heap, as set-up does.
func (h *tracedHarness) layer(m map[string]float64, parent int, name, host, msKey,
	allocKey string, fn func() error) error {
	if host != "" {
		runtime.GC()
	}
	var before runtime.MemStats
	if allocKey != "" {
		runtime.ReadMemStats(&before)
	}
	sp := h.tr.beginProbe(name, parent, host)
	err := fn()
	m[msKey] = ms(h.tr.end(sp))
	if allocKey != "" {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		m[allocKey] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// rep runs one traced rep and returns its per-layer sample.
func (h *tracedHarness) rep() (map[string]float64, repResult) {
	w, tr := h.w, h.tr
	m := map[string]float64{}
	var r repResult
	root := tr.begin("rep", -1)
	defer tr.end(root)

	debug.FreeOSMemory() // as timedRep does, so the overhead ratio compares like with like
	c0 := processCPU()
	setup := tr.begin("setup", root)
	var circ *firrtl.Circuit
	var d0, d1 *netlist.Design
	var s sim.Simulator
	var sess *serve.Session
	err := h.layer(m, setup, "firrtl.parse", "", "firrtl.parse_ms", "firrtl.parse_alloc_mb",
		func() (err error) { circ, err = firrtl.Parse(w.text); return err })
	if err == nil {
		err = h.layer(m, setup, "netlist.compile", "", "netlist.compile_ms", "netlist.compile_alloc_mb",
			func() (err error) { d0, err = netlist.Compile(circ); return err })
	}
	if err == nil {
		err = h.layer(m, setup, "opt.optimize", "", "opt.optimize_ms", "opt.alloc_mb",
			func() (err error) { d1, _, err = opt.OptimizeOpts(d0, opt.Options{}); return err })
	}
	if err == nil && w.gen == nil {
		err = h.layer(m, setup, "sim.new", "", "sim.new_ms", "sim.new_alloc_mb",
			func() (err error) { s, err = sim.New(d1, w.engine); return err })
	}
	if err == nil && w.gen != nil {
		err = h.layer(m, setup, "serve.new", "", "serve.start_ms", "", func() (err error) {
			sess, err = serve.New(d1, serve.Config{Gen: *w.gen, CacheDir: w.opts.ArtifactCacheDir})
			return err
		})
	}
	r.setupWall = tr.end(setup)
	r.setup = processCPU() - c0
	if err != nil {
		r.err = err
		return m, r
	}
	mt := meter{tr: tr, parent: -1}
	if sess != nil {
		defer sess.Close()
		s = sess
		if d := sess.Degradation(); d != nil {
			r.err = fmt.Errorf("compiled backend degraded at start (%s): %s", d.Cause, d.Detail)
			return m, r
		}
		if mt, _, err = childMeter(&r, tr, -1); err != nil {
			r.err = err
			return m, r
		}
	}
	m["netlist.nodes"] = float64(d0.NumNodes())
	m["opt.nodes_after"] = float64(d1.NumNodes())

	probes := tr.begin("probes", root)
	err = h.probes(m, probes, d0, d1, sess)
	tr.end(probes)
	if err != nil {
		r.err = err
		return m, r
	}

	runtime.GC()
	mt.parent = tr.begin("run", root)
	r.o, r.err = w.drive(layerTarget{s, d1}, mt)
	tr.end(mt.parent)
	if sess != nil && r.err == nil {
		if d := sess.Degradation(); d != nil {
			r.err = fmt.Errorf("compiled backend degraded (%s): %s", d.Cause, d.Detail)
		}
	}
	if r.err == nil {
		r.err = w.check(r.o)
	}
	if r.err == nil {
		runtimeMetrics(m, r.o, s, sess != nil)
	}
	return m, r
}

// probes re-runs the layers hidden inside opt.OptimizeOpts, sim.New and
// serve.New on the same inputs, plus the compiled backend's pipe costs.
func (h *tracedHarness) probes(m map[string]float64, parent int, d0, d1 *netlist.Design,
	sess *serve.Session) error {
	// Static activity analysis runs inside opt after constant folding;
	// the probe analyzes the unoptimized netlist.
	err := h.layer(m, parent, "sa.analyze", "opt.optimize", "sa.analyze_ms", "", func() error {
		res, err := sa.Analyze(d0, sa.Options{})
		if err == nil {
			m["sa.proven_frac"] = provenFrac(res)
		}
		return err
	})
	if err != nil {
		return err
	}
	if sess == nil {
		return h.engineProbes(m, parent, d1)
	}
	return h.serveProbes(m, parent, d1, sess)
}

// provenFrac is the share of signals static activity analysis proved
// constant or gated.
func provenFrac(res *sa.Result) float64 {
	n := 0
	for i := range res.ConstVal {
		if res.ConstVal[i] != nil || len(res.Guards[i]) > 0 {
			n++
		}
	}
	return float64(n) / float64(len(res.ConstVal))
}

// engineProbes times the CCSS plan (and the partitioner inside it) and
// the plan verification that sim.New runs before building the machine.
func (h *tracedHarness) engineProbes(m map[string]float64, parent int, d *netlist.Design) error {
	cp := h.w.engine.Cp
	if cp <= 0 {
		cp = partition.DefaultCp
	}
	var plan *sched.CCSSPlan
	err := h.layer(m, parent, "sched.plan", "sim.new", "sched.plan_ms", "", func() (err error) {
		plan, err = sched.PlanCCSSOpts(d, sched.PlanOptions{Cp: cp})
		return err
	})
	if err != nil {
		return err
	}
	dg := netlist.BuildGraph(d)
	err = h.layer(m, parent, "partition.partition", "sched.plan", "partition.partition_ms", "",
		func() error {
			res, err := partition.Partition(dg, partition.Options{Cp: cp})
			if err == nil {
				m["partition.parts"] = float64(len(res.Parts))
			}
			return err
		})
	if err != nil {
		return err
	}
	err = h.layer(m, parent, "verify.plan", "sim.new", "verify.plan_ms", "", func() error {
		diags := append(verify.DesignPrePlanned(d), verify.Plan(plan)...)
		return verify.Enforce(verify.Strict, diags, nil)
	})
	m["sim.new_self_ms"] = m["sim.new_ms"] - m["sched.plan_ms"] - m["verify.plan_ms"]
	return err
}

// serveProbes times code generation, one cold artifact build (first rep
// only), a state capture, and single-cycle steps and peeks over the
// pipe. The steps run with reset held, before the program loads.
func (h *tracedHarness) serveProbes(m map[string]float64, parent int, d *netlist.Design,
	sess *serve.Session) error {
	gen := *h.w.gen
	err := h.layer(m, parent, "codegen.generate", "serve.build", "codegen.generate_ms", "",
		func() error {
			simSrc, mainSrc, err := codegen.GenerateArtifact(d, gen)
			m["codegen.src_kb"] = float64(len(simSrc)+len(mainSrc)) / 1024
			return err
		})
	if err != nil {
		return err
	}
	if h.buildMs == 0 {
		dir, err := os.MkdirTemp(filepath.Dir(h.w.opts.ArtifactCacheDir), "cold-build-")
		if err != nil {
			return err
		}
		err = h.layer(m, parent, "serve.build", "serve.new", "serve.build_ms", "", func() error {
			_, err := serve.EnsureArtifact(d, gen, serve.Config{Gen: gen, CacheDir: dir})
			return err
		})
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		h.buildMs = m["serve.build_ms"]
	}
	m["serve.build_ms"] = h.buildMs

	var st *sim.State
	h.layer(m, parent, "serve.capture", "serve.new", "serve.capture_ms", "", func() error {
		st = sess.CaptureState()
		return nil
	})
	if st == nil {
		return errors.New("serve.capture: no state")
	}
	m["serve.capture_kb"] = float64(len(ckpt.Encode(st))) / 1024

	rst, ok := d.SignalByName("reset")
	if !ok {
		return errors.New("no reset signal")
	}
	sess.Poke(rst, 1)
	sp := h.tr.beginProbe("serve.step1", parent, "serve.new")
	for i := 0; i < step1Probes && err == nil; i++ {
		err = sess.Step(1)
	}
	m["serve.step1_us"] = us(h.tr.end(sp), step1Probes)
	if err != nil {
		return fmt.Errorf("serve.step1: %w", err)
	}

	tohost, ok := d.SignalByName(designs.TohostSig)
	if !ok {
		return errors.New("no tohost signal")
	}
	sp = h.tr.beginProbe("pipe.peek", parent, "serve.new")
	for i := 0; i < peekProbes; i++ {
		sess.Peek(tohost)
	}
	m["pipe.peek_rtt_us"] = us(h.tr.end(sp), peekProbes)
	return nil
}

// runtimeMetrics derives per-cycle work counters from the rep's Stats
// and VecInfo deltas between reset release and the end of the run.
func runtimeMetrics(m map[string]float64, o outcome, s sim.Simulator, compiled bool) {
	c := float64(o.cycles)
	per := func(after, before uint64) float64 { return float64(after-before) / c }
	a, b := o.after, o.before
	m["sim.cycles"] = c
	m["sim.ns_per_cycle"] = float64((o.stepCPU + o.childCPU).Nanoseconds()) / c
	m["sim.part_checks_per_cycle"] = per(a.PartChecks, b.PartChecks)
	m["sim.input_checks_per_cycle"] = per(a.InputChecks, b.InputChecks)
	m["sim.part_evals_per_cycle"] = per(a.PartEvals, b.PartEvals)
	m["sim.ops_per_cycle"] = per(a.OpsEvaluated, b.OpsEvaluated)
	m["sim.output_compares_per_cycle"] = per(a.OutputCompares, b.OutputCompares)
	m["sim.wakes_per_cycle"] = per(a.Wakes, b.Wakes)
	m["sim.step_allocs_per_kcycle"] = float64(o.mallocs) / (c / 1000)
	if se, ok := s.(interface{ NumSchedEntries() int }); ok && !compiled {
		m["sim.eff_activity"] = m["sim.ops_per_cycle"] / float64(se.NumSchedEntries())
	}
	m["vec.groups"] = float64(o.vecAfter.Groups)
	m["vec.vec_parts"] = float64(o.vecAfter.VecParts)
	m["vec.group_evals_per_cycle"] = per(o.vecAfter.GroupEvals, o.vecBefore.GroupEvals)
	m["vec.lane_evals_per_cycle"] = per(o.vecAfter.LaneEvals, o.vecBefore.LaneEvals)
	if compiled {
		m["pipe.pokemem_us"] = us(o.loadDur, o.loadWords)
	}
}

// tracedRun alternates traced reps with untraced facade reps; the ratio
// of their medians is the tracing overhead. Per-layer metrics are the
// medians over the traced reps.
func tracedRun(w *workload, seconds float64, traceOut string) (*ledger, report, error) {
	h := &tracedHarness{w: w, tr: newTracer(w.name)}
	var traced, plain ledger
	samples := map[string][]float64{}
	repeat(seconds, minReps, func() {
		m, r := h.rep()
		if traced.add(r) {
			for k, v := range m {
				samples[k] = append(samples[k], v)
			}
		}
		h.tr.rep++
		plain.add(timedRep(w))
	})
	if err := checkNesting(h.tr.spans); err != nil {
		return nil, report{}, err
	}
	if err := writeSpans(h.tr, traceOut); err != nil {
		return nil, report{}, err
	}
	metrics := map[string]metric{}
	for k, unit := range perLayerUnits {
		metrics[k] = metric{median(samples[k]), unit}
	}
	metrics["trace.setup_ratio"] = metric{median(traced.setups) / median(plain.setups), "ratio"}
	metrics["trace.cps_ratio"] = metric{median(traced.rates) / median(plain.rates), "ratio"}
	self := map[string][]float64{}
	for i, d := range selfTimes(h.tr.spans) {
		self[h.tr.spans[i].Name] = append(self[h.tr.spans[i].Name], ms(d))
	}
	selfMedian := map[string]float64{}
	for k, v := range self {
		selfMedian[k] = median(v)
	}
	// Both sides' reps count toward attempted and failed.
	all := &ledger{attempted: traced.attempted + plain.attempted,
		failed: traced.failed + plain.failed, errs: append(traced.errs, plain.errs...)}
	if traced.cycles != plain.cycles {
		all.failed++
		all.errs = append(all.errs, fmt.Sprintf("traced reps simulated %d cycles, untraced %d",
			traced.cycles, plain.cycles))
	}
	return all, report{metrics: metrics, detail: map[string]any{
		"traced_reps":           traced.attempted,
		"untraced_reps":         plain.attempted,
		"cycles_per_rep":        traced.cycles,
		"self_ms_median":        selfMedian,
		"spans":                 len(h.tr.spans),
		"untraced_setup_s":      median(plain.setups),
		"traced_setup_s":        median(traced.setups),
		"untraced_wall_setup_s": median(plain.wallSetups),
		"traced_wall_setup_s":   median(traced.wallSetups),
		"gocache":               os.Getenv("GOCACHE"),
		"errors":                all.errs,
	}}, nil
}
