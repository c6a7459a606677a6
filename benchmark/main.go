// Command benchmark is the essent repository benchmark: it compiles a
// workload's FIRRTL text through the public facade, runs it to cycles
// out, checks every rep against an independent reference, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// one JSON object on the last line of standard output. Run it through
// run.py, which builds it and prepares the private artifact cache:
//
//	python3 benchmark/run.py --workload boom-pchase --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"essent"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's metrics plus the detail printed before them.
type report struct {
	metrics map[string]metric
	detail  map[string]any
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "stimulus seed")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	cache := flag.String("artifact-cache", "", "private compiled-artifact cache directory")
	traceOut := flag.String("trace-out", "", "file the traced run writes its spans to")
	commit := flag.String("commit", "unknown", "source revision, for provenance")
	warm := flag.Bool("warm", false, "only build the workload's compiled artifact into --artifact-cache")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *cache, *traceOut, *commit, *warm); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, cache, traceOut,
	commit string, warm bool) error {
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	w, err := newWorkload(name, seed, cache, fullScale)
	if err != nil {
		return err
	}
	if warm {
		return warmArtifact(w)
	}
	var l *ledger
	var rep report
	if trace == 1 {
		if l, rep, err = tracedRun(w, seconds, traceOut); err != nil {
			return err
		}
	} else {
		l, rep = timedRun(w, seconds)
	}
	rep.detail["provenance"] = map[string]any{
		"workload": name, "seed": seed, "tracing": trace == 1,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
	detail, err := json.Marshal(map[string]any{"detail": rep.detail})
	if err != nil {
		return err
	}
	result, err := json.Marshal(map[string]any{
		"correct": l.failed == 0, "attempted": l.attempted, "failed": l.failed,
		"metrics": rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", detail, result)
	return nil
}

// warmArtifact builds the compiled workload's artifact into the private
// cache, so timed reps measure a warm-cache start.
func warmArtifact(w *workload) error {
	if w.gen == nil {
		return nil
	}
	s, err := essent.Compile(w.text, w.opts)
	if err != nil {
		return err
	}
	defer s.Close()
	if d := s.BackendDegradation(); d != nil {
		return fmt.Errorf("artifact warm-up degraded (%s): %s", d.Cause, d.Detail)
	}
	return nil
}

// writeSpans writes the traced run's spans, one JSON object per line.
func writeSpans(tr *tracer, path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
