package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"essent/internal/netlist"
)

// layoutSrc builds n replicated accumulator instances whose next-state
// logic holds two mux-shadowed cones: one selected by the global enable
// (a selector every lane reads from the same word) and one by the
// instance's own sel input (a selector that diverges per lane). Each
// instance also carries a constant operand, so its class has constant
// rows. An XOR reduction over every instance's next-state sum gives the
// groups a same-cycle consumer all lanes share (a fan-in wake), and an
// OR over every third instance's gives lanes unequal consumer counts.
func layoutSrc(n int) string {
	src := `
circuit Lay :
  module Lay :
    input clock : Clock
    input en : UInt<1>
    input clr : UInt<1>
`
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("    input d%d : UInt<8>\n    input sel%d : UInt<1>\n", i, i)
	}
	for i := 0; i < n; i++ {
		src += fmt.Sprintf("    output q%d : UInt<8>\n", i)
	}
	src += "    output red : UInt<8>\n    output part : UInt<8>\n"
	for i := 0; i < n; i++ {
		src += fmt.Sprintf(`    reg acc%[1]d : UInt<8>, clock
    reg b%[1]d : UInt<8>, clock
    node p%[1]d = bits(add(mul(acc%[1]d, d%[1]d), xor(acc%[2]d, UInt<8>(165))), 7, 0)
    node m%[1]d = tail(sub(acc%[1]d, and(d%[1]d, UInt<8>(15))), 1)
    b%[1]d <= mux(sel%[1]d, p%[1]d, m%[1]d)
    node s%[1]d = tail(add(acc%[1]d, xor(d%[1]d, b%[1]d)), 1)
    acc%[1]d <= mux(clr, UInt<8>(0), mux(en, s%[1]d, acc%[1]d))
    q%[1]d <= xor(acc%[1]d, b%[1]d)
`, i, (i+n-1)%n)
	}
	red, part := "s0", "s0"
	for i := 1; i < n; i++ {
		red = fmt.Sprintf("xor(%s, s%d)", red, i)
		if i%3 == 0 {
			part = fmt.Sprintf("or(%s, s%d)", part, i)
		}
	}
	return src + "    red <= " + red + "\n    part <= " + part + "\n"
}

// permuteLanes reorders lanes 1.. of group gi by perm (new lane k holds
// old lane perm[k]; lane 0, the leader, stays put) and recompiles the
// lane-dependent tables the way the builder would: member IDs are no
// longer ascending, so activity runs split and wake terms change.
func permuteLanes(v *VecCCSS, gi int, perm []int) {
	g := &v.groups[gi]
	L := g.lanes
	col := func(xs []int32, s int) {
		old := append([]int32(nil), xs[s*L:s*L+L]...)
		for k, l := range perm {
			xs[s*L+k] = old[l]
		}
	}
	col(g.parts, 0)
	for s := 0; s < g.nslots; s++ {
		col(g.laneOff, s)
		old := append([]uint64(nil), g.buf[s*L:s*L+L]...)
		for k, l := range perm {
			g.buf[s*L+k] = old[l]
		}
	}
	for oi := range g.outs {
		o := &g.outs[oi]
		old := o.consumers
		o.consumers = make([][]int32, L)
		for k, l := range perm {
			o.consumers[k] = old[l]
		}
		o.compileWakes()
	}
	oldRegs := g.regs
	g.regs = make([][]int32, L)
	for k, l := range perm {
		g.regs[k] = oldRegs[l]
	}
	g.runs = laneRuns(g.parts)
}

// layoutInstances spans three flag words of partitions at two per
// instance.
const layoutInstances = 100

// TestVecLaneLayoutLockstep drives the vec engine against scalar CCSS
// over lane layouts the word-parallel paths must handle: groups whose
// member IDs straddle a flag-word boundary, groups narrower than 64
// lanes, full 64-lane groups, permuted (non-ascending, non-contiguous)
// member IDs, uniform and per-lane-divergent skip selectors, and both
// full and partial activity masks. State is compared every cycle and
// Stats exactly, at Workers 1 and 4, across a mid-run Capture/Restore
// after which the verifier (constant rows included) must still pass.
func TestVecLaneLayoutLockstep(t *testing.T) {
	d := compileSrc(t, layoutSrc(layoutInstances))
	for _, tc := range []struct {
		name     string
		maxLanes int
		permute  bool
	}{
		{"cap48", 48, false},
		{"cap64", 64, false},
		{"cap48-permuted", 48, true},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				v, err := NewVecCCSS(d, VecCCSSOptions{MaxLanes: tc.maxLanes,
					MinLanes: 2, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if tc.permute {
					rng := rand.New(rand.NewSource(5))
					for gi := range v.groups {
						perm := append([]int{0}, rng.Perm(v.groups[gi].lanes-1)...)
						for k := 1; k < len(perm); k++ {
							perm[k]++
						}
						permuteLanes(v, gi, perm)
					}
					if diags := v.verifyVec(); len(diags) != 0 {
						t.Fatalf("permuted layout rejected: %+v", diags)
					}
				}
				checkLayoutCoverage(t, v, tc.maxLanes, tc.permute)
				ref, err := NewCCSS(d, CCSSOptions{})
				if err != nil {
					t.Fatal(err)
				}
				runLayoutLockstep(t, d, ref, v)
			})
		}
	}
}

// checkLayoutCoverage asserts the compiled layout exercises what the
// lockstep test claims to cover.
func checkLayoutCoverage(t *testing.T, v *VecCCSS, maxLanes int, permuted bool) {
	t.Helper()
	var straddle, narrow, wide, split, uniSkip, divSkip, consts, fanin, shared, uneven bool
	for gi := range v.groups {
		g := &v.groups[gi]
		narrow = narrow || g.lanes < 64
		wide = wide || g.lanes == 64
		split = split || len(g.runs) > 1
		consts = consts || len(g.constRows) > 0
		for _, o := range g.outs {
			fanin = fanin || len(o.fanin) > 0
			uneven = uneven || o.nwake < 0
			for _, tm := range o.terms {
				shared = shared || tm.src.Count() > 1
			}
		}
		for _, r := range g.runs {
			straddle = straddle || r.lo/64 != (r.hi-1)/64
		}
		for _, e := range g.prog {
			if e.kind == seSkipIfZero || e.kind == seSkipIfNonzero {
				uniSkip = uniSkip || g.uniform[e.idx]
				divSkip = divSkip || !g.uniform[e.idx]
			}
		}
	}
	// A permuted layout's runs are single lanes, which never straddle.
	if straddle == permuted || !narrow || !uniSkip || !divSkip || !consts ||
		!fanin || !shared || !uneven || wide != (maxLanes == 64) || split != permuted {
		t.Fatalf("layout coverage: straddle=%v narrow=%v wide=%v split=%v "+
			"uniformSkip=%v divergentSkip=%v constRows=%v fanIn=%v sharedTerm=%v "+
			"unevenCounts=%v", straddle, narrow, wide, split, uniSkip, divSkip,
			consts, fanin, shared, uneven)
	}
}

// runLayoutLockstep alternates a busy phase (en high, most inputs
// poked: every lane active) with a quiet one (en low, a few instances
// poked: partial masks), restoring both engines from a vec snapshot
// halfway.
func runLayoutLockstep(t *testing.T, d *netlist.Design, ref Simulator, v *VecCCSS) {
	t.Helper()
	sims := []Simulator{ref, v}
	poke := func(name string, x uint64) {
		id, ok := d.SignalByName(name)
		if !ok {
			t.Fatalf("no input %s", name)
		}
		for _, s := range sims {
			s.Poke(id, x)
		}
	}
	minLanes := uint64(64)
	for gi := range v.groups {
		minLanes = min(minLanes, uint64(v.groups[gi].lanes))
	}
	rng := rand.New(rand.NewSource(17))
	var sawFull, sawPartial bool
	const cycles = 240
	for cyc := 0; cyc < cycles; cyc++ {
		busy := cyc/20%2 == 0
		poke("en", b2u(busy))
		poke("clr", b2u(rng.Intn(40) == 0))
		pokes := 3
		if busy {
			pokes = 2 * layoutInstances
		}
		for k := 0; k < pokes; k++ {
			i := rng.Intn(layoutInstances)
			poke(fmt.Sprintf("d%d", i), uint64(rng.Intn(256)))
			poke(fmt.Sprintf("sel%d", i), uint64(rng.Intn(2)))
		}
		before := v.VecInfo()
		for _, s := range sims {
			if err := s.Step(1); err != nil {
				t.Fatalf("cycle %d: %v", cyc, err)
			}
		}
		after := v.VecInfo()
		ge, le := after.GroupEvals-before.GroupEvals, after.LaneEvals-before.LaneEvals
		sawFull = sawFull || ge == uint64(after.Groups) && le == uint64(after.VecParts)
		// Fewer lanes than ge narrowest groups hold: some mask was partial.
		sawPartial = sawPartial || ge > 0 && le < ge*minLanes
		if r, g := archState(ref), archState(v); r != g {
			t.Fatalf("cycle %d diverged:\nref: %s\nvec: %s", cyc, r, g)
		}
		if rs, vs := *ref.Stats(), *v.Stats(); rs != vs {
			t.Fatalf("cycle %d stats diverged:\nref: %+v\nvec: %+v", cyc, rs, vs)
		}
		if cyc == cycles/2 {
			st, err := Capture(v)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sims {
				if err := Restore(s, st); err != nil {
					t.Fatal(err)
				}
			}
			if diags := v.verifyVec(); len(diags) != 0 {
				t.Fatalf("tables changed across restore: %+v", diags)
			}
		}
	}
	if !sawFull || !sawPartial {
		t.Fatalf("activity coverage: all-lanes cycle=%v partial-mask cycle=%v",
			sawFull, sawPartial)
	}
}
