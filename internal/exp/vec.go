package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"essent/internal/ckpt"
	"essent/internal/designs"
	"essent/internal/netlist"
	"essent/internal/sim"
)

// VecRow is one design×maxlanes×{vec,novec} measurement of the
// instance-vectorization sweep. NoVec rows (Vec=false) run the same
// engine with vectorization disabled — flattened scalar CCSS over the
// identical compiled plan — and anchor SpeedupVsNoVec for their twin.
type VecRow struct {
	Design       string  `json:"design"`
	Instances    int     `json:"instances"`
	Nodes        int     `json:"nodes"`
	MaxLanes     int     `json:"max_lanes"`
	Vec          bool    `json:"vec"`
	Cycles       uint64  `json:"cycles"`
	Seconds      float64 `json:"seconds"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// SpeedupVsNoVec is this row's throughput over the NoVec run at the
	// same design×maxlanes cell (1.0 on NoVec rows).
	SpeedupVsNoVec float64 `json:"speedup_vs_novec"`
	// Groups / VecParts / WidestGroup describe the compiled classes
	// (zero when NoVec).
	Groups      int `json:"groups"`
	VecParts    int `json:"vec_parts"`
	WidestGroup int `json:"widest_group"`
	// StateMatch confirms the vec run ended with the same architectural
	// state hash and the same Stats as its NoVec twin in every rep
	// (always true on NoVec rows, the reference).
	StateMatch bool `json:"state_match"`
}

// vecReps mirrors the pack sweep's interleaved min-of estimator.
const vecReps = 3

// vecCycles sizes the replicated-fabric runs off the scale's cycle cap;
// the arrays self-stimulate, so the stretch is pure engine throughput.
func vecCycles(scale Scale, nodes int) int {
	c := scale.MaxCycles / 200
	// Scale down for very large grids so a full sweep stays bounded.
	if nodes > 20_000 {
		c /= 4
	}
	if c < 1_000 {
		c = 1_000
	}
	if c > 25_000 {
		c = 25_000
	}
	return c
}

// vecDesign is one replicated-fabric cell of the sweep.
type vecDesign struct {
	name      string
	instances int
	d         *netlist.Design
	enable    netlist.SignalID
}

// vecDesigns compiles the sweep's designs: MAC arrays at 8×8 and 16×16
// (plus 32×32 at full scale) and an 8×8 NoC mesh. The netlists are left
// unoptimized — both arms of every cell run the identical compiled plan,
// and the raw form keeps instance cones structurally pristine.
func vecDesigns(scale Scale, designFilter []string) ([]vecDesign, error) {
	keep := func(name string) bool {
		if len(designFilter) == 0 {
			return true
		}
		for _, f := range designFilter {
			if f == name {
				return true
			}
		}
		return false
	}
	macSizes := []int{8, 16}
	if scale.MaxCycles > 1_000_000 {
		macSizes = append(macSizes, 32)
	}
	var out []vecDesign
	for _, n := range macSizes {
		name := fmt.Sprintf("mac%d", n)
		if !keep(name) {
			continue
		}
		circ, err := designs.BuildMACArray(designs.MACArrayConfig{
			Name: name, Rows: n, Cols: n, DataW: 8})
		if err != nil {
			return nil, err
		}
		d, err := netlist.Compile(circ)
		if err != nil {
			return nil, err
		}
		en, ok := d.SignalByName(designs.MACEnInput)
		if !ok {
			return nil, fmt.Errorf("exp: %s has no %s input", name, designs.MACEnInput)
		}
		out = append(out, vecDesign{name, n * n, d, en})
	}
	if keep("noc8") {
		circ, err := designs.BuildNoCMesh(designs.NoCMesh())
		if err != nil {
			return nil, err
		}
		d, err := netlist.Compile(circ)
		if err != nil {
			return nil, err
		}
		en, ok := d.SignalByName(designs.NoCEnInput)
		if !ok {
			return nil, fmt.Errorf("exp: noc8 has no %s input", designs.NoCEnInput)
		}
		out = append(out, vecDesign{"noc8", 64, d, en})
	}
	return out, nil
}

// VecSweep measures the instance-vectorization engine against its NoVec
// ablation on the replicated-fabric designs, at each lane cap. Nil
// filters select every design and the default lane caps {16, 64}.
func VecSweep(scale Scale, maxLanes []int, workers int,
	designFilter []string) ([]VecRow, error) {
	if len(maxLanes) == 0 {
		maxLanes = []int{16, 64}
	}
	cells, err := vecDesigns(scale, designFilter)
	if err != nil {
		return nil, err
	}
	var rows []VecRow
	for _, cd := range cells {
		cycles := vecCycles(scale, cd.d.NumNodes())
		for _, ml := range maxLanes {
			cell := make([]VecRow, 2)
			times := make([][]float64, 2)
			match := true
			for rep := 0; rep < vecReps; rep++ {
				var twin vecOutcome
				for vi, novec := range []bool{true, false} {
					o, err := runVecOnce(cd, ml, workers, cycles, novec)
					if err != nil {
						return nil, err
					}
					times[vi] = append(times[vi], o.elapsed.Seconds())
					row := VecRow{Design: cd.name, Instances: cd.instances,
						Nodes: cd.d.NumNodes(), MaxLanes: ml, Vec: !novec,
						Cycles: uint64(cycles), StateMatch: true}
					if novec {
						twin = o
					} else {
						row.Groups = o.vst.Groups
						row.VecParts = o.vst.VecParts
						row.WidestGroup = o.vst.MaxLanes
						match = match && o.hash == twin.hash && o.stats == twin.stats
						row.StateMatch = match
					}
					cell[vi] = row
				}
			}
			for vi := range cell {
				row := &cell[vi]
				row.Seconds = minOf(times[vi])
				if row.Seconds > 0 {
					row.CyclesPerSec = float64(row.Cycles) / row.Seconds
				}
			}
			cell[0].SpeedupVsNoVec = 1
			if cell[0].CyclesPerSec > 0 {
				cell[1].SpeedupVsNoVec = cell[1].CyclesPerSec / cell[0].CyclesPerSec
			}
			rows = append(rows, cell...)
		}
	}
	return rows, nil
}

// vecOutcome is one timed run and what it ended with: the final
// architectural state hash and Stats the vec/NoVec twins must agree on.
type vecOutcome struct {
	elapsed time.Duration
	vst     sim.VecStats
	hash    uint64
	stats   sim.Stats
}

// runVecOnce times one self-stimulated run of a replicated-fabric design.
func runVecOnce(cd vecDesign, maxLanes, workers, cycles int,
	novec bool) (vecOutcome, error) {
	var o vecOutcome
	s, err := sim.New(cd.d, sim.Options{Engine: sim.EngineCCSSVec,
		NoVec: novec, MaxVecLanes: maxLanes, Workers: workers})
	if err != nil {
		return o, err
	}
	s.Poke(cd.enable, 1)
	start := time.Now()
	const chunk = 1024
	for done := 0; done < cycles; done += chunk {
		n := min(chunk, cycles-done)
		if err := s.Step(n); err != nil {
			return o, fmt.Errorf("exp: vec %s: %w", cd.name, err)
		}
	}
	o.elapsed = time.Since(start)
	if vv, ok := s.(interface{ VecInfo() sim.VecStats }); ok {
		o.vst = vv.VecInfo()
	}
	if !novec && o.vst.Groups == 0 {
		return o, fmt.Errorf("exp: %s did not vectorize", cd.name)
	}
	st, err := sim.Capture(s)
	if err != nil {
		return o, fmt.Errorf("exp: vec %s: %w", cd.name, err)
	}
	o.hash, o.stats = ckpt.StateHash(st), *s.Stats()
	return o, nil
}

// CheckVecMatch fails when any vec row did not end bit-exact (state
// and Stats) with its NoVec twin, naming every such design×lane-cap
// cell; a sweep with a wrong answer must not pass as a measurement.
func CheckVecMatch(rows []VecRow) error {
	var bad []string
	for _, r := range rows {
		if !r.StateMatch {
			bad = append(bad, fmt.Sprintf("%s/lanes=%d", r.Design, r.MaxLanes))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("exp: vec engine state or stats differ from NoVec on %s",
			strings.Join(bad, ", "))
	}
	return nil
}

// RenderVec formats the instance-vectorization sweep.
func RenderVec(rows []VecRow) string {
	var b strings.Builder
	b.WriteString("Instance-vectorization sweep (vec vs NoVec CCSS)\n")
	b.WriteString("  Design Insts  Nodes MaxLanes Vec    Seconds    Cyc/sec  Speedup  Groups VecParts Widest Match\n")
	for _, r := range rows {
		vec := "no"
		if r.Vec {
			vec = "yes"
		}
		fmt.Fprintf(&b, "  %s %5d %6d %8d %-4s %9.3f %10.0f %7.2fx %7d %8d %6d %5v\n",
			pad(r.Design, 6), r.Instances, r.Nodes, r.MaxLanes, vec,
			r.Seconds, r.CyclesPerSec, r.SpeedupVsNoVec,
			r.Groups, r.VecParts, r.WidestGroup, r.StateMatch)
	}
	return b.String()
}

// WriteVecCSV emits design,instances,nodes,max_lanes,vec,cycles,seconds,
// cycles_per_sec,speedup_vs_novec,groups,vec_parts,widest_group,
// state_match.
func WriteVecCSV(w io.Writer, rows []VecRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"design", "instances", "nodes", "max_lanes",
		"vec", "cycles", "seconds", "cycles_per_sec", "speedup_vs_novec",
		"groups", "vec_parts", "widest_group", "state_match"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Design, strconv.Itoa(r.Instances), strconv.Itoa(r.Nodes),
			strconv.Itoa(r.MaxLanes), strconv.FormatBool(r.Vec),
			strconv.FormatUint(r.Cycles, 10),
			fmt.Sprintf("%.4f", r.Seconds),
			fmt.Sprintf("%.0f", r.CyclesPerSec),
			fmt.Sprintf("%.4f", r.SpeedupVsNoVec),
			strconv.Itoa(r.Groups), strconv.Itoa(r.VecParts),
			strconv.Itoa(r.WidestGroup), strconv.FormatBool(r.StateMatch),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteVecJSON emits the sweep as an indented JSON array.
func WriteVecJSON(w io.Writer, rows []VecRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
