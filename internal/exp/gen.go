package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"essent/internal/ckpt"
	"essent/internal/codegen"
	"essent/internal/netlist"
	"essent/internal/opt"
	"essent/internal/serve"
	"essent/internal/sim"
)

// GenRow is one design's measurement of the compiled-backend
// experiment: the cold artifact build cost, the warm-cache session
// start, and end-to-end throughput of the supervised subprocess against
// the in-process interpreter under identical self-stimulation.
type GenRow struct {
	Design  string `json:"design"`
	Signals int    `json:"signals"`
	// ColdBuildMs is codegen + go build into an empty cache;
	// WarmStartMs is a full session start (spawn + handshake + initial
	// checkpoint) against the populated cache.
	ColdBuildMs float64 `json:"cold_build_ms"`
	WarmStartMs float64 `json:"warm_start_ms"`
	Cycles      uint64  `json:"cycles"`
	// SecondsCompiled / SecondsInterp are min-of-reps run times.
	SecondsCompiled float64 `json:"seconds_compiled"`
	SecondsInterp   float64 `json:"seconds_interp"`
	// Speedup is interpreter time over compiled time (>1 means the
	// compiled backend is faster despite the pipe round-trips).
	Speedup float64 `json:"speedup"`
	// StateMatch confirms the two backends ended bit-exact; Degraded
	// reports whether the session abandoned its subprocess mid-sweep.
	StateMatch bool `json:"state_match"`
	Degraded   bool `json:"degraded"`
}

// genReps mirrors the other sweeps' interleaved min-of estimator.
const genReps = 3

// GenSweep measures the compiled-simulator backend per design: artifact
// build latency cold and warm, then throughput and bit-exactness of the
// supervised subprocess against the CCSS interpreter. A nil filter
// selects r16, fab, and mac16.
func GenSweep(scale Scale, designFilter []string) ([]GenRow, error) {
	cells, err := saDesigns(designFilter)
	if err != nil {
		return nil, err
	}
	cacheDir, err := os.MkdirTemp("", "essent-gensweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)

	var rows []GenRow
	for _, cd := range cells {
		d, _, err := opt.Optimize(cd.raw)
		if err != nil {
			return nil, err
		}
		cfg := serve.Config{
			Gen:      codegen.Options{Mode: codegen.ModeCCSS, Cp: 8},
			CacheDir: cacheDir,
		}
		row := GenRow{
			Design:  cd.name,
			Signals: cd.raw.NumNodes(),
			Cycles:  uint64(saCycles(scale, cd.raw.NumNodes())),
		}

		start := time.Now()
		if _, err := serve.EnsureArtifact(d, cfg.Gen, cfg); err != nil {
			return nil, fmt.Errorf("exp: build %s: %w", cd.name, err)
		}
		row.ColdBuildMs = float64(time.Since(start)) / float64(time.Millisecond)

		start = time.Now()
		sess, err := serve.New(d, cfg)
		if err != nil {
			return nil, err
		}
		row.WarmStartMs = float64(time.Since(start)) / float64(time.Millisecond)

		ip, err := sim.New(d, sim.Options{Engine: sim.EngineCCSS, Cp: 8})
		if err != nil {
			sess.Close()
			return nil, err
		}

		var tC, tI []float64
		for rep := 0; rep < genReps; rep++ {
			eI, err := runGenOnce(cd, d, ip, int(row.Cycles))
			if err != nil {
				sess.Close()
				return nil, err
			}
			eC, err := runGenOnce(cd, d, sess, int(row.Cycles))
			if err != nil {
				sess.Close()
				return nil, err
			}
			tI = append(tI, eI.Seconds())
			tC = append(tC, eC.Seconds())
		}
		row.SecondsCompiled = minOf(tC)
		row.SecondsInterp = minOf(tI)
		if row.SecondsCompiled > 0 {
			row.Speedup = row.SecondsInterp / row.SecondsCompiled
		}

		stC, errC := sim.Capture(sess)
		stI, errI := sim.Capture(ip)
		row.StateMatch = errC == nil && errI == nil &&
			ckpt.StateHash(stC) == ckpt.StateHash(stI)
		row.Degraded = sess.Degraded()
		sess.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// CheckGenMatch fails when any row's compiled backend did not end
// bit-exact with the interpreter, naming every such design; a sweep
// with a wrong answer must not pass as a measurement.
func CheckGenMatch(rows []GenRow) error {
	var bad []string
	for _, r := range rows {
		if !r.StateMatch {
			bad = append(bad, r.Design)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("exp: compiled backend state differs from the interpreter on %s",
			strings.Join(bad, ", "))
	}
	return nil
}

// runGenOnce times one self-stimulated run on an already-built
// simulator, resetting first so reps are comparable.
func runGenOnce(cd saDesign, d *netlist.Design, s sim.Simulator, cycles int) (time.Duration, error) {
	s.Reset()
	if cd.enable != netlist.NoSignal {
		name := cd.raw.Signals[cd.enable].Name
		id, ok := d.SignalByName(name)
		if !ok {
			return 0, fmt.Errorf("exp: %s lost input %s", cd.name, name)
		}
		s.Poke(id, 1)
	}
	if reset, ok := d.SignalByName("reset"); ok {
		s.Poke(reset, 1)
		if err := s.Step(2); err != nil {
			return 0, err
		}
		s.Poke(reset, 0)
	}
	start := time.Now()
	const chunk = 4096
	for done := 0; done < cycles; done += chunk {
		n := chunk
		if cycles-done < n {
			n = cycles - done
		}
		if err := s.Step(n); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// RenderGen formats the compiled-backend table.
func RenderGen(rows []GenRow) string {
	var b strings.Builder
	b.WriteString("Compiled backend (artifact build, warm start, throughput vs interpreter)\n")
	b.WriteString("  Design Signals  Build(ms)  Warm(ms)   Cycles  Compiled(s)  Interp(s)  Speedup  Match\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s %7d %10.1f %9.2f %8d %12.4f %10.4f %7.2fx  %v\n",
			pad(r.Design, 6), r.Signals, r.ColdBuildMs, r.WarmStartMs,
			r.Cycles, r.SecondsCompiled, r.SecondsInterp, r.Speedup, r.StateMatch)
	}
	return b.String()
}

// WriteGenCSV emits the sweep as plot-ready CSV.
func WriteGenCSV(w io.Writer, rows []GenRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"design", "signals", "cold_build_ms",
		"warm_start_ms", "cycles", "seconds_compiled", "seconds_interp",
		"speedup", "state_match", "degraded"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Design, strconv.Itoa(r.Signals),
			fmt.Sprintf("%.3f", r.ColdBuildMs),
			fmt.Sprintf("%.3f", r.WarmStartMs),
			strconv.FormatUint(r.Cycles, 10),
			fmt.Sprintf("%.4f", r.SecondsCompiled),
			fmt.Sprintf("%.4f", r.SecondsInterp),
			fmt.Sprintf("%.4f", r.Speedup),
			strconv.FormatBool(r.StateMatch),
			strconv.FormatBool(r.Degraded),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteGenJSON emits the sweep as an indented JSON array.
func WriteGenJSON(w io.Writer, rows []GenRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
