package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"essent/internal/riscv"
)

// smokeScale shrinks every workload to a few hundred cycles.
var smokeScale = scale{
	programs:  riscv.WorkloadConfig{MatmulN: 2, PchaseNodes: 16, PchaseHops: 40, DhrystoneIters: 1},
	macEpochs: 2,
}

// atRepoRoot runs the test from the repository root, where the compiled
// backend finds the essent module it builds artifacts against.
func atRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func smokeWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := newWorkload(name, 7, filepath.Join(t.TempDir(), "artifacts"), smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkloadsSmoke runs one timed and one traced rep of every workload
// at smoke scale; each must pass its reference check.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles three designs and builds a compiled artifact")
	}
	atRepoRoot(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := smokeWorkload(t, name)
			r := timedRep(w)
			if r.err != nil {
				t.Fatalf("timed rep: %v", r.err)
			}
			if r.o.cycles == 0 || r.o.cyclesPerSec() <= 0 || r.setup <= 0 {
				t.Fatalf("timed rep measured nothing: %+v", r)
			}
			h := &tracedHarness{w: w, tr: newTracer(name)}
			m, tr := h.rep()
			if tr.err != nil {
				t.Fatalf("traced rep: %v", tr.err)
			}
			if tr.o.cycles != r.o.cycles {
				t.Fatalf("traced rep simulated %d cycles, timed rep %d", tr.o.cycles, r.o.cycles)
			}
			for k := range m {
				if _, ok := perLayerUnits[k]; !ok {
					t.Errorf("traced rep reports unlisted metric %s", k)
				}
			}
			if err := checkNesting(h.tr.spans); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReferenceMismatchFails corrupts the reference: every rep must fail
// and the run must report it.
func TestReferenceMismatchFails(t *testing.T) {
	w := smokeWorkload(t, "mac16-vec")
	w.expected[0] ^= 1
	l, rep := timedRun(w, 0.01)
	if l.failed != l.attempted || l.attempted < minReps {
		t.Fatalf("%d of %d reps failed, want all of at least %d", l.failed, l.attempted, minReps)
	}
	if got := rep.metrics["pass_rate"].Value; got != 0 {
		t.Fatalf("pass_rate = %v, want 0", got)
	}
	if got := rep.detail["fail_rate"]; got != 1.0 {
		t.Fatalf("fail_rate = %v, want 1", got)
	}
}

func TestSelfTimesAndNesting(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", Parent: 0, StartNs: 10, EndNs: 30},
		{Name: "b", Parent: 0, StartNs: 20, EndNs: 50}, // overlaps a
		{Name: "c", Parent: 2, StartNs: 25, EndNs: 40},
	}
	self := selfTimes(spans)
	want := []time.Duration{60, 20, 15, 15}
	if !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	spans[3].EndNs = 60 // c now outlives its parent b
	if checkNesting(spans) == nil {
		t.Fatal("a child outside its parent was accepted")
	}
}

// TestTracedRepArithmetic checks a real traced rep: every child lies in
// its parent, no self time is negative, and probes stay out of set-up.
func TestTracedRepArithmetic(t *testing.T) {
	w := smokeWorkload(t, "mac16-vec")
	h := &tracedHarness{w: w, tr: newTracer(w.name)}
	if _, r := h.rep(); r.err != nil {
		t.Fatal(r.err)
	}
	spans := h.tr.spans
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	for i, d := range selfTimes(spans) {
		if d < 0 {
			t.Errorf("span %s has negative self time %v", spans[i].Name, d)
		}
	}
	setup := slices.IndexFunc(spans, func(s span) bool { return s.Name == "setup" })
	for _, s := range spans {
		if s.Host != "" && s.Parent == setup {
			t.Errorf("probe %s is inside set-up", s.Name)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p, v, ok := tailPercentile(xs, true)
	if !ok || p != 90 || v != 90 {
		t.Fatalf("lower-is-better tail = p%d %v %v, want p90 90", p, v, ok)
	}
	if p, v, _ = tailPercentile(xs, false); p != 90 || v != 11 {
		t.Fatalf("higher-is-better tail = p%d %v, want p90 11", p, v)
	}
	if _, _, ok := tailPercentile(xs[:19], true); ok {
		t.Fatal("19 samples gave a tail percentile")
	}
}

// TestBenchmarkJSONNames keeps BENCHMARK.json and the code in step.
func TestBenchmarkJSONNames(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	w := smokeWorkload(t, "mac16-vec")
	_, rep := timedRun(w, 0.01)
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for k, m := range rep.metrics {
		if e2e[k] != m.Unit {
			t.Errorf("end-to-end metric %s: unit %q in BENCHMARK.json, %q in code", k, e2e[k], m.Unit)
		}
	}
	if len(e2e) != len(rep.metrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, code reports %d", len(e2e), len(rep.metrics))
	}
	var listed, code []string
	for _, m := range spec.PerLayer {
		listed = append(listed, m.Name)
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s: unit %q in BENCHMARK.json, %q in code", m.Name, m.Unit, perLayerUnits[m.Name])
		}
	}
	for k := range perLayerUnits {
		code = append(code, k)
	}
	sort.Strings(listed)
	sort.Strings(code)
	if !slices.Equal(listed, code) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\ncode           %v", listed, code)
	}
}
