// Command benchall regenerates every table and figure of the paper's
// evaluation (§V): Table I (design sizes), Table II (workload cycles),
// Table III (engine execution times and ESSENT speedups), Table IV
// (approach comparison), Figure 5 (activity distributions), Figure 6
// (Cp sweep), and Figure 7 (overhead decomposition).
//
// Usage:
//
//	benchall                      # everything at full scale
//	benchall -quick               # reduced workloads
//	benchall -only table3         # one experiment
//	benchall -only table3 -json - # machine-readable records on stdout
//	                              # (design, engine, cycles/sec, activity)
//	benchall -workers 1,2,4,8     # parallel CCSS scaling sweep appended
//	benchall -only scaling        # just the sweep (default worker list)
//	benchall -lanes 1,4,16,64     # batched CCSS lane sweep appended
//	benchall -only lanes -lanes 4 -cycles 20000 -designs r16
//	                              # CI-sized smoke of the lane sweep
//	benchall -only verifycost -designs r16
//	                              # static-verification compile overhead
//	benchall -only ckptcost -ckptevery 5000,20000
//	                              # checkpoint run-time overhead + resume check
//	benchall -only pack -lanes 16,64
//	                              # bit-packing sweep: packed vs NoPack batch
//	benchall -only lanes -nopack  # lane sweep with the packing pass disabled
//	benchall -only vec -lanes 16,64
//	                              # instance-vectorization sweep: vec vs NoVec
//	                              # on the replicated MAC-array/NoC designs
//	benchall -only sa -designs r16
//	                              # static activity analysis: proof coverage,
//	                              # compile cost, CCSS speedup vs ablation
//	benchall -only gen -designs r16
//	                              # compiled backend: artifact build latency
//	                              # cold vs warm, subprocess vs interpreter
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"essent/internal/designs"
	"essent/internal/exp"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "reduced workload scale")
		only  = flag.String("only", "",
			"run one experiment: table1..4, fig5..7, ablation, scaling, lanes, verifycost, ckptcost, pack, vec, sa")
		csvDir   = flag.String("csv", "", "also write plot-ready CSV files to this directory")
		jsonPath = flag.String("json", "",
			`write Table III results as JSON records to this file ("-" for stdout)`)
		workersFlag = flag.String("workers", "",
			`comma-separated worker counts for the parallel CCSS scaling sweep
(e.g. "1,2,4,8"; implies the scaling experiment; default list with -only scaling)`)
		lanesFlag = flag.String("lanes", "",
			`comma-separated lane counts for the batched CCSS lane sweep
(e.g. "1,4,16,64"; implies the lanes experiment; default list with -only lanes)`)
		laneWorkers = flag.Int("laneworkers", 1,
			"worker pool size for the batched lane sweep (1 = single-threaded)")
		cyclesFlag = flag.Int("cycles", 0,
			"override the cycle cap (0 = scale default; lane-sweep runs tolerate the cap)")
		designsFlag = flag.String("designs", "",
			`comma-separated design subset to compile and evaluate (e.g. "r16")`)
		ckptEvery = flag.String("ckptevery", "",
			`comma-separated checkpoint intervals in cycles for the overhead
experiment (default list with -only ckptcost)`)
		noPack = flag.Bool("nopack", false,
			"ablation: disable the batch engine's bit-packing pass in the lane sweep")
		// -novec exists only to be rejected with a pointer to the real
		// switch; validateFlags reads it via flag.Visit.
		_ = flag.Bool("novec", false,
			"rejected: the vec sweep always measures both arms; the functional"+
				" ablation switch is 'essent -engine vec -novec'")
		// -backend likewise: the gen sweep always measures both backends.
		_ = flag.String("backend", "",
			"rejected: the gen sweep always measures both the compiled and"+
				" interpreter backends; the functional switch is 'essent -backend compiled'")
	)
	flag.Parse()
	if err := validateFlags(*only); err != nil {
		fmt.Fprintln(os.Stderr, "benchall:", err)
		flag.Usage()
		os.Exit(2)
	}

	writeCSV := func(name string, emit func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := emit(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", filepath.Join(*csvDir, name))
	}

	scale := exp.FullScale()
	if *quick {
		scale = exp.QuickScale()
	}
	if *cyclesFlag > 0 {
		scale.MaxCycles = *cyclesFlag
	}
	want := func(name string) bool { return *only == "" || *only == name }

	if *only == "vec" {
		// The vec sweep compiles its own replicated-fabric designs; skip
		// the SoC design set entirely.
		runVecSweep(scale, *lanesFlag, *laneWorkers, *designsFlag,
			*jsonPath, writeCSV)
		return
	}
	if *only == "sa" {
		// The SA sweep compiles its own r16/fab/mac16 cells; skip the
		// SoC design set entirely.
		runSASweep(scale, *designsFlag, *jsonPath, writeCSV)
		return
	}
	if *only == "gen" {
		// The gen sweep compiles its own r16/fab/mac16 cells; skip the
		// SoC design set entirely.
		runGenSweep(scale, *designsFlag, *jsonPath, writeCSV)
		return
	}

	cfgs, names, err := selectConfigs(*designsFlag)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("building evaluation designs (%s)...\n", strings.Join(names, ", "))
	start := time.Now()
	ds, err := exp.NewDesignSet(scale, cfgs)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compiled in %.1fs\n\n", time.Since(start).Seconds())

	if want("table1") {
		rows := ds.TableI()
		fmt.Println(exp.RenderTableI(rows))
		writeCSV("table1.csv", func(f *os.File) error { return exp.WriteTableICSV(f, rows) })
	}
	if want("table2") {
		rows, err := ds.TableII(scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderTableII(rows))
		writeCSV("table2.csv", func(f *os.File) error { return exp.WriteTableIICSV(f, rows) })
	}
	if want("table3") {
		fmt.Println("running Table III (4 engines × 3 designs × 3 workloads)...")
		rows, err := ds.TableIII(scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderTableIII(rows))
		var minS, maxS float64
		for _, r := range rows {
			if minS == 0 || r.Speedup < minS {
				minS = r.Speedup
			}
			if r.Speedup > maxS {
				maxS = r.Speedup
			}
		}
		fmt.Printf("ESSENT vs Baseline speedup range: %.2fx – %.2fx\n\n", minS, maxS)
		writeCSV("table3.csv", func(f *os.File) error { return exp.WriteTableIIICSV(f, rows) })
		if *jsonPath != "" {
			out := os.Stdout
			if *jsonPath != "-" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			if err := exp.WriteBenchJSON(out, rows); err != nil {
				fatal(err)
			}
			if *jsonPath != "-" {
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
			}
		}
	}
	if want("table4") {
		fmt.Println(exp.RenderTableIV(exp.TableIV()))
	}
	if want("fig5") {
		fmt.Println("running Figure 5 (activity sampling)...")
		series, err := ds.Fig5(scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderFig5(series))
		writeCSV("fig5.csv", func(f *os.File) error { return exp.WriteFig5CSV(f, series) })
	}
	if want("fig6") {
		fmt.Printf("running Figure 6 (Cp sweep %v)...\n", exp.Fig6Cps)
		rows, err := ds.Fig6(scale, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderFig6(rows, nil))
		best := map[int]int{}
		for _, r := range rows {
			if r.Normalized < 1.10 {
				best[r.Cp]++
			}
		}
		var bestCp, bestN int
		for cp, n := range best {
			if n > bestN || (n == bestN && cp < bestCp) {
				bestCp, bestN = cp, n
			}
		}
		fmt.Printf("Cp=%d is within 10%% of best on %d of %d design×workload cells\n\n",
			bestCp, bestN, len(rows)/len(exp.Fig6Cps))
		writeCSV("fig6.csv", func(f *os.File) error { return exp.WriteFig6CSV(f, rows) })
	}
	if want("fig7") {
		fmt.Println("running Figure 7 (overhead decomposition)...")
		rows, err := ds.Fig7(scale, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderFig7(rows))
		writeCSV("fig7.csv", func(f *os.File) error { return exp.WriteFig7CSV(f, rows) })
	}
	if want("ablation") {
		fmt.Println("running ablation (optimization contributions)...")
		rows, err := ds.Ablation(scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderAblation(rows))
	}
	if *workersFlag != "" || *only == "scaling" {
		workers, err := parseCounts(*workersFlag, []int{1, 2, 4, 8})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("running parallel CCSS scaling sweep (workers %v)...\n", workers)
		rows, err := ds.ScalingSweep(scale, workers,
			[]string{"r16", "r18"}, []string{"dhrystone", "pchase"})
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderScaling(rows))
		writeCSV("scaling.csv", func(f *os.File) error { return exp.WriteScalingCSV(f, rows) })
		if *jsonPath != "" && *only == "scaling" {
			out := os.Stdout
			if *jsonPath != "-" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			if err := exp.WriteScalingJSON(out, rows); err != nil {
				fatal(err)
			}
			if *jsonPath != "-" {
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
			}
		}
	}
	if *lanesFlag != "" || *only == "lanes" {
		lanes, err := parseCounts(*lanesFlag, []int{1, 4, 16, 64})
		if err != nil {
			fatal(err)
		}
		// Default the sweep to r16 unless -designs narrowed the set
		// explicitly (boom at 64 lanes is a very long run).
		var designFilter []string
		if *designsFlag == "" {
			designFilter = []string{"r16"}
		}
		note := ""
		if *noPack {
			note = ", packing disabled"
		}
		fmt.Printf("running batched CCSS lane sweep (lanes %v, %d worker(s)%s)...\n",
			lanes, *laneWorkers, note)
		rows, err := ds.LaneSweep(scale, lanes, *laneWorkers, *noPack,
			designFilter, []string{"dhrystone"})
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderLanes(rows))
		writeCSV("lanes.csv", func(f *os.File) error { return exp.WriteLanesCSV(f, rows) })
		if *jsonPath != "" && *only == "lanes" {
			out := os.Stdout
			if *jsonPath != "-" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			if err := exp.WriteLanesJSON(out, rows); err != nil {
				fatal(err)
			}
			if *jsonPath != "-" {
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
			}
		}
	}
	if *only == "pack" {
		lanes, err := parseCounts(*lanesFlag, []int{16, 64})
		if err != nil {
			fatal(err)
		}
		// Default to the interrupt fabric (the 1-bit-heavy design the
		// pass targets) plus r16, unless -designs narrowed the set.
		var designFilter []string
		if *designsFlag == "" {
			designFilter = []string{"fab", "r16"}
		} else {
			designFilter = append(strings.Split(*designsFlag, ","), "fab")
		}
		fmt.Printf("running bit-packing sweep (lanes %v, %d worker(s))...\n",
			lanes, *laneWorkers)
		rows, err := ds.PackSweep(scale, lanes, *laneWorkers,
			designFilter, []string{"dhrystone"})
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderPack(rows))
		writeCSV("pack.csv", func(f *os.File) error { return exp.WritePackCSV(f, rows) })
		if *jsonPath != "" {
			out := os.Stdout
			if *jsonPath != "-" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			if err := exp.WritePackJSON(out, rows); err != nil {
				fatal(err)
			}
			if *jsonPath != "-" {
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
			}
		}
	}
	if *only == "verifycost" {
		// Default to r16 (the acceptance budget's design) unless -designs
		// narrowed the set explicitly.
		var designFilter []string
		if *designsFlag == "" {
			designFilter = []string{"r16"}
		}
		fmt.Println("measuring static-verification compile overhead (strict vs off)...")
		rows, err := ds.VerifyCostSweep(designFilter)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderVerifyCost(rows))
		writeCSV("verifycost.csv", func(f *os.File) error { return exp.WriteVerifyCostCSV(f, rows) })
		if *jsonPath != "" {
			out := os.Stdout
			if *jsonPath != "-" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			if err := exp.WriteVerifyCostJSON(out, rows); err != nil {
				fatal(err)
			}
			if *jsonPath != "-" {
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
			}
		}
	}
	if *only == "ckptcost" {
		// Default to r16 (the acceptance budget's design) unless -designs
		// narrowed the set explicitly.
		var designFilter []string
		if *designsFlag == "" {
			designFilter = []string{"r16"}
		}
		intervals, err := parseIntervals(*ckptEvery)
		if err != nil {
			fatal(err)
		}
		fmt.Println("measuring checkpoint run-time overhead (snapshots vs plain run)...")
		rows, err := ds.CkptCostSweep(scale, intervals, designFilter)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderCkptCost(rows))
		writeCSV("ckptcost.csv", func(f *os.File) error { return exp.WriteCkptCostCSV(f, rows) })
		if *jsonPath != "" {
			out := os.Stdout
			if *jsonPath != "-" {
				f, err := os.Create(*jsonPath)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				out = f
			}
			if err := exp.WriteCkptCostJSON(out, rows); err != nil {
				fatal(err)
			}
			if *jsonPath != "-" {
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
			}
		}
	}
}

// runVecSweep runs the instance-vectorization experiment: vec vs NoVec
// on the replicated MAC-array and NoC-mesh designs at each lane cap.
func runVecSweep(scale exp.Scale, lanesFlag string, workers int,
	designsFlag, jsonPath string, writeCSV func(string, func(*os.File) error)) {
	lanes, err := parseCounts(lanesFlag, []int{16, 64})
	if err != nil {
		fatal(err)
	}
	var designFilter []string
	if designsFlag != "" {
		for _, part := range strings.Split(designsFlag, ",") {
			designFilter = append(designFilter, strings.TrimSpace(part))
		}
	}
	fmt.Printf("running instance-vectorization sweep (lane caps %v, %d worker(s))...\n",
		lanes, workers)
	rows, err := exp.VecSweep(scale, lanes, workers, designFilter)
	if err != nil {
		fatal(err)
	}
	fmt.Println(exp.RenderVec(rows))
	writeCSV("vec.csv", func(f *os.File) error { return exp.WriteVecCSV(f, rows) })
	if jsonPath != "" {
		out := os.Stdout
		if jsonPath != "-" {
			f, err := os.Create(jsonPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := exp.WriteVecJSON(out, rows); err != nil {
			fatal(err)
		}
		if jsonPath != "-" {
			fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
		}
	}
	// The table and JSON above still record the failing rows.
	if err := exp.CheckVecMatch(rows); err != nil {
		fatal(err)
	}
}

// runSASweep runs the static-activity experiment: proof coverage and
// analysis cost per design, plus CCSS throughput of the SA-optimized
// netlist against the NoSA ablation.
func runSASweep(scale exp.Scale, designsFlag, jsonPath string,
	writeCSV func(string, func(*os.File) error)) {
	var designFilter []string
	if designsFlag != "" {
		for _, part := range strings.Split(designsFlag, ",") {
			designFilter = append(designFilter, strings.TrimSpace(part))
		}
	}
	fmt.Println("running static activity analysis sweep (SA vs ablation)...")
	rows, err := exp.SASweep(scale, designFilter)
	if err != nil {
		fatal(err)
	}
	fmt.Println(exp.RenderSA(rows))
	writeCSV("sa.csv", func(f *os.File) error { return exp.WriteSACSV(f, rows) })
	if jsonPath != "" {
		out := os.Stdout
		if jsonPath != "-" {
			f, err := os.Create(jsonPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := exp.WriteSAJSON(out, rows); err != nil {
			fatal(err)
		}
		if jsonPath != "-" {
			fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
		}
	}
}

// runGenSweep runs the compiled-backend experiment: artifact build
// latency cold and warm, then throughput and bit-exactness of the
// supervised subprocess against the CCSS interpreter. Exits non-zero
// when any design's compiled state differs from the interpreter's.
func runGenSweep(scale exp.Scale, designsFlag, jsonPath string,
	writeCSV func(string, func(*os.File) error)) {
	var designFilter []string
	if designsFlag != "" {
		for _, part := range strings.Split(designsFlag, ",") {
			designFilter = append(designFilter, strings.TrimSpace(part))
		}
	}
	fmt.Println("running compiled-backend sweep (build, warm start, throughput)...")
	rows, err := exp.GenSweep(scale, designFilter)
	if err != nil {
		fatal(err)
	}
	fmt.Println(exp.RenderGen(rows))
	writeCSV("gen.csv", func(f *os.File) error { return exp.WriteGenCSV(f, rows) })
	if jsonPath != "" {
		out := os.Stdout
		if jsonPath != "-" {
			f, err := os.Create(jsonPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := exp.WriteGenJSON(out, rows); err != nil {
			fatal(err)
		}
		if jsonPath != "-" {
			fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
		}
	}
	// The table and JSON above still record the failing rows.
	if err := exp.CheckGenMatch(rows); err != nil {
		fatal(err)
	}
}

// experiments are the valid -only values.
var experiments = []string{"table1", "table2", "table3", "table4",
	"fig5", "fig6", "fig7", "ablation", "scaling", "lanes", "verifycost",
	"ckptcost", "pack", "vec", "sa", "gen"}

// validateFlags rejects contradictory flag combinations up front, before
// any design compiles — previously `-only lanes -workers 4` silently ran
// the parallel-scaling sweep too, benchmarking an engine the user never
// asked for.
func validateFlags(only string) error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if only != "" {
		found := false
		for _, e := range experiments {
			if only == e {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown experiment %q (want one of %s)",
				only, strings.Join(experiments, ", "))
		}
	}
	wantScaling := only == "scaling" || (only == "" && set["workers"])
	wantLanes := only == "lanes" || (only == "" && set["lanes"])
	wantPack := only == "pack"
	wantVec := only == "vec"
	if set["workers"] && !wantScaling {
		return fmt.Errorf("-workers selects the parallel scaling sweep and contradicts -only %s"+
			" (for the lane sweep's worker pool use -laneworkers)", only)
	}
	if set["lanes"] && !wantLanes && !wantPack && !wantVec {
		return fmt.Errorf("-lanes selects the batched lane sweep and contradicts -only %s", only)
	}
	if set["laneworkers"] && !wantLanes && !wantPack && !wantVec {
		return fmt.Errorf("-laneworkers only applies to the lane, pack, and vec sweeps" +
			" (use with -only lanes, -only pack, -only vec, or -lanes)")
	}
	if set["nopack"] && only == "gen" {
		return fmt.Errorf("-nopack ablates the lane sweep's packing pass and" +
			" contradicts -only gen (the gen sweep measures the CCSS artifact as built)")
	}
	if set["nopack"] && !wantLanes {
		return fmt.Errorf("-nopack ablates the lane sweep's packing pass" +
			" (the pack sweep always measures both; use with -only lanes or -lanes)")
	}
	if set["novec"] {
		return fmt.Errorf("the vec sweep always measures both the vectorized and" +
			" NoVec arms, so -novec contradicts -only vec; the functional ablation" +
			" switch is `essent -engine vec -novec`")
	}
	if set["backend"] {
		return fmt.Errorf("the gen sweep always measures both the compiled and" +
			" interpreter backends, so -backend contradicts -only gen; the" +
			" functional switch is `essent -backend compiled`")
	}
	if set["ckptevery"] && only != "ckptcost" {
		return fmt.Errorf("-ckptevery configures the checkpoint-overhead experiment" +
			" (use with -only ckptcost)")
	}
	return nil
}

// parseIntervals parses the -ckptevery list into cycle counts ("" = the
// experiment's default sweep).
func parseIntervals(s string) ([]uint64, error) {
	if s == "" {
		return nil, nil
	}
	counts, err := parseCounts(s, nil)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(counts))
	for i, n := range counts {
		out[i] = uint64(n)
	}
	return out, nil
}

// selectConfigs resolves the -designs subset ("" = all evaluation
// designs), returning the configs and their names for the banner.
func selectConfigs(filter string) ([]designs.Config, []string, error) {
	all := designs.Configs()
	var names []string
	if filter == "" {
		for _, c := range all {
			names = append(names, c.Name)
		}
		return nil, names, nil
	}
	var cfgs []designs.Config
	for _, part := range strings.Split(filter, ",") {
		name := strings.TrimSpace(part)
		found := false
		for _, c := range all {
			if c.Name == name {
				cfgs = append(cfgs, c)
				names = append(names, name)
				found = true
				break
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("unknown design %q", name)
		}
	}
	return cfgs, names, nil
}

// parseCounts parses a comma-separated list of positive counts ("" =
// the given default list).
func parseCounts(s string, def []int) ([]int, error) {
	if s == "" {
		return def, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count entry %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchall:", err)
	os.Exit(1)
}
