package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"essent/internal/netlist"
	"essent/internal/randckt"
	"essent/internal/sched"
)

// Word-boundary tests for the bitset partition walk (DESIGN.md §5). The
// CCSS-family engines scan activity flags 64 partitions at a time, so
// the partition counts that matter are those around word edges: a lone
// partition, one short of a word, exactly one word, one past it, and
// one past two words.

// flagScanDesign searches random circuits with printf sinks for one
// whose CCSS plan at some Cp has exactly n partitions, at least one of
// them always-on, and (for n > 1) a same-word forward wake: a partition
// output consumed by a later partition in the same flag word, which the
// walk must still evaluate in the cycle the wake happens.
func flagScanDesign(t *testing.T, n int) (*netlist.Design, int) {
	t.Helper()
	for seed := int64(0); seed < 40; seed++ {
		for _, cp := range []int{1, 2, 1 << 20} {
			for _, nodes := range []int{2 * n / cp, 3 * n / cp, n / cp, 4 * n / cp} {
				cfg := randckt.DefaultConfig()
				cfg.Nodes, cfg.Regs, cfg.Printfs = nodes, 1+nodes/4, 3
				if n == 1 {
					// A lone partition must be the sink's own: nothing
					// but a printf of an input.
					cfg = randckt.Config{Inputs: 1, MaxWidth: 70, Printfs: 1}
				}
				d, err := netlist.Compile(randckt.Generate(seed, cfg))
				if err != nil {
					t.Fatal(err)
				}
				plan, err := sched.PlanCCSS(d, cp)
				if err != nil {
					t.Fatal(err)
				}
				if len(plan.Parts) == n && flagScanShape(plan) {
					return d, cp
				}
			}
		}
	}
	t.Fatalf("no random circuit plans to %d partitions with the wanted shape", n)
	return nil, 0
}

// flagScanShape reports whether a plan has an always-on partition and,
// when it has more than one partition, a same-word forward wake.
func flagScanShape(plan *sched.CCSSPlan) bool {
	alwaysOn, sameWord := false, len(plan.Parts) == 1
	for p := range plan.Parts {
		alwaysOn = alwaysOn || plan.Parts[p].AlwaysOn
		for _, o := range plan.Parts[p].Outputs {
			for _, q := range o.Consumers {
				if q > p && q/64 == p/64 {
					sameWord = true
				}
			}
		}
	}
	return alwaysOn && sameWord
}

// flagScanLanes builds n-2 independent register lanes (one partition
// each, all on one parallel level, so the parallel engine crosses its
// worker pool) plus two always-on printf partitions after them. One
// printf reads the chain of the first lane in its own flag word: a
// forward wake into the same word.
func flagScanLanes(t *testing.T, n int) *netlist.Design {
	t.Helper()
	lanes := n - 2
	src := wideSrc(lanes, 12)
	for _, l := range []int{(lanes / 64) * 64, 0} {
		src += fmt.Sprintf("    printf(clock, bits(n%d_11, 0, 0), \"x %%d\\n\", n%d_11)\n", l, l)
	}
	d := compileSrc(t, src)
	plan, err := sched.PlanCCSS(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Parts) != n || !flagScanShape(plan) {
		t.Fatalf("lanes design: %d partitions, want %d with an always-on partition and a same-word wake",
			len(plan.Parts), n)
	}
	return d
}

// TestFlagScanWordBoundaries runs each boundary design on the sequential
// walk, the parallel engine with its pool forced on, and the vec engine
// with and without classes. Every engine must match the full-cycle
// baseline's state every cycle; the sequential and vec walks must agree
// on every Stats field and count one flag check per partition per cycle.
// The parallel engine skips idle levels without checking their flags, so
// its PartChecks is excluded; every other field must match.
func TestFlagScanWordBoundaries(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 129} {
		d, cp := flagScanDesign(t, n)
		t.Run(fmt.Sprintf("randckt-%d", n), func(t *testing.T) {
			checkFlagScan(t, d, cp, n, false)
		})
		if n > 1 {
			d := flagScanLanes(t, n)
			t.Run(fmt.Sprintf("lanes-%d", n), func(t *testing.T) {
				checkFlagScan(t, d, 8, n, true)
			})
		}
	}
}

func checkFlagScan(t *testing.T, d *netlist.Design, cp, n int, wantPool bool) {
	const cycles = 150
	ref, err := NewFullCycle(d, false)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewCCSS(d, CCSSOptions{Cp: cp})
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumPartitions() != n {
		t.Fatalf("engine built %d partitions, want %d", seq.NumPartitions(), n)
	}
	par, err := NewParallelCCSS(d, ParallelOptions{Cp: cp, Workers: 4, SerialCutoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	noVec, err := NewVecCCSS(d, VecCCSSOptions{Cp: cp, NoVec: true})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := NewVecCCSS(d, VecCCSSOptions{Cp: cp})
	if err != nil {
		t.Fatal(err)
	}
	sims := []Simulator{ref, seq, par, noVec, vec}
	names := []string{"baseline", "ccss", "parallel", "vec-novec", "vec"}
	rng := rand.New(rand.NewSource(int64(n)))
	for cyc := 0; cyc < cycles; cyc++ {
		if cyc == 0 || rng.Intn(3) == 0 {
			pokeRandom(rng, sims, d)
		}
		for i, s := range sims {
			if err := s.Step(1); err != nil {
				t.Fatalf("%s cycle %d: %v", names[i], cyc, err)
			}
		}
		want := archState(ref)
		for i, s := range sims[1:] {
			if got := archState(s); got != want {
				t.Fatalf("cycle %d: %s diverged from the baseline:\nwant %s\ngot  %s",
					cyc, names[i+1], want, got)
			}
		}
	}
	if wantPool && !par.started {
		t.Fatal("the parallel engine never dispatched a level to its pool")
	}
	st := *seq.Stats()
	if st.PartChecks != cycles*uint64(n) {
		t.Fatalf("PartChecks = %d, want cycles × partitions = %d",
			st.PartChecks, cycles*uint64(n))
	}
	for i, s := range []Simulator{noVec, vec} {
		if got := *s.Stats(); got != st {
			t.Fatalf("%s stats differ:\nccss %+v\ngot  %+v", names[3+i], st, got)
		}
	}
	pst := *par.Stats()
	pst.PartChecks = st.PartChecks
	if pst != st {
		t.Fatalf("parallel stats differ:\nccss %+v\ngot  %+v", st, pst)
	}
}
