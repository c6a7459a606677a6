package sim

import (
	"fmt"

	"essent/internal/bits"
	"essent/internal/verify"
)

// SM-VEC: static verification of the instance-vectorization compilation
// (DESIGN.md §12). Runs after class detection at construction, before
// the first cycle, in the same enforcement pipeline as the SM-* machine
// rules. The verifier re-derives its facts from the compiled groups,
// the machine, and the plan — it shares no state with the builder, so a
// builder bug shows up as a rule violation instead of a miscompile.
//
//	SM-VEC-CLASS    group membership is a bijection: every member in
//	                exactly one group, ≥2 lanes, the leader is lane 0
//	                and the earliest member in schedule order
//	SM-VEC-MAP      per lane, the slot→offset map is injective and
//	                total (a collapsed pair with a write would make a
//	                later read ambiguous between old and new values)
//	SM-VEC-DEFUSE   class-program replay: every slot read is a declared
//	                boundary load or written earlier in the program;
//	                every output/store slot is written somewhere
//	SM-VEC-POS      schedule legality recomputed from the plan: every
//	                data predecessor of a member resolves before the
//	                leader's position and outside the member's group;
//	                ordering predecessors resolve before the leader or
//	                inside the group (gather-before-scatter)
//	SM-VEC-SCATTER  every member's change-detected outputs and
//	                architectural state writes (elided register
//	                storage, register next values, design outputs) are
//	                covered by the group's scatter sets
//	SM-VEC-UNIFORM  the load split is recomputed from laneOff: a load
//	                is uniform iff every lane maps it to one word and no
//	                entry writes it, constant rows are exactly the
//	                uniform loads on constant-pool words and hold the
//	                pool value in every lane
//	SM-VEC-WAKE     expanding each output's wake terms yields exactly
//	                the lane's consumer set, and the per-lane wake
//	                counts equal the consumer list lengths
//	SM-VEC-RUNS     the activity runs cover the member list exactly,
//	                in lane order
func (v *VecCCSS) verifyVec() []verify.Diagnostic {
	c := &vecChecker{v: v}
	c.checkClassBijection()
	for gi := range v.groups {
		g := &v.groups[gi]
		c.checkLaneMaps(gi, g)
		c.checkDefUse(gi, g)
		c.checkScatter(gi, g)
		if len(g.laneOff) == g.nslots*g.lanes && len(g.buf) == len(g.laneOff) {
			c.checkUniform(gi, g)
		}
		c.checkWakes(gi, g)
		c.checkRuns(gi, g)
	}
	c.checkPositions()
	return c.diags
}

type vecChecker struct {
	v     *VecCCSS
	diags []verify.Diagnostic
}

func (c *vecChecker) errf(rule, loc, hint, format string, args ...any) {
	c.diags = append(c.diags, verify.Diagnostic{
		Rule: rule, Sev: verify.SevError, Loc: loc,
		Msg: fmt.Sprintf(format, args...), Hint: hint,
	})
}

func (c *vecChecker) groupLoc(gi int) string {
	return fmt.Sprintf("vec class %d (leader partition %d)",
		gi, c.v.groups[gi].parts[0])
}

func (c *vecChecker) checkClassBijection() {
	v := c.v
	seen := make(map[int32]int)
	for gi := range v.groups {
		g := &v.groups[gi]
		if len(g.parts) < 2 {
			c.errf("SM-VEC-CLASS", c.groupLoc(gi),
				"classes need at least two instances to vectorize",
				"group has %d member(s)", len(g.parts))
		}
		if g.lanes != len(g.parts) {
			c.errf("SM-VEC-CLASS", c.groupLoc(gi),
				"lane count must equal the member count",
				"lanes=%d members=%d", g.lanes, len(g.parts))
		}
		for li, p := range g.parts {
			if int(p) < 0 || int(p) >= len(v.parts) {
				c.errf("SM-VEC-CLASS", c.groupLoc(gi),
					"member indices must be runtime partition IDs",
					"lane %d references partition %d", li, p)
				continue
			}
			if prev, dup := seen[p]; dup {
				c.errf("SM-VEC-CLASS", c.groupLoc(gi),
					"a partition may join at most one class",
					"partition %d already in group %d", p, prev)
			}
			seen[p] = gi
			if v.groupAt[p] != int32(gi) {
				c.errf("SM-VEC-CLASS", c.groupLoc(gi),
					"groupAt must agree with group membership",
					"partition %d: groupAt=%d", p, v.groupAt[p])
			}
			if li > 0 && p <= g.parts[0] {
				c.errf("SM-VEC-CLASS", c.groupLoc(gi),
					"the leader must be the earliest member in schedule order",
					"lane %d partition %d precedes leader %d", li, p, g.parts[0])
			}
			wantLeader := li == 0
			if v.leaders.has(p) != wantLeader {
				c.errf("SM-VEC-CLASS", c.groupLoc(gi),
					"exactly lane 0 carries the leader mark",
					"partition %d leader=%v", p, v.leaders.has(p))
			}
		}
	}
	for p, g := range v.groupAt {
		if v.grouped.has(int32(p)) != (g >= 0) || g < 0 && v.leaders.has(int32(p)) {
			c.errf("SM-VEC-CLASS", fmt.Sprintf("partition %d", p),
				"the walk's member and leader masks must agree with group membership",
				"partition %d: groupAt=%d grouped=%v leader=%v", p, g,
				v.grouped.has(int32(p)), v.leaders.has(int32(p)))
		}
		if g < 0 {
			continue
		}
		if _, ok := seen[int32(p)]; !ok {
			c.errf("SM-VEC-CLASS",
				fmt.Sprintf("partition %d", p),
				"groupAt must agree with group membership",
				"partition marked in group %d but absent from it", g)
		}
	}
}

func (c *vecChecker) checkLaneMaps(gi int, g *vecGroup) {
	if len(g.laneOff) != g.nslots*g.lanes {
		c.errf("SM-VEC-MAP", c.groupLoc(gi),
			"laneOff must be total: nslots × lanes entries",
			"have %d entries, want %d", len(g.laneOff), g.nslots*g.lanes)
		return
	}
	tlen := int32(len(c.v.machine.t))
	for l := 0; l < g.lanes; l++ {
		seen := make(map[int32]int, g.nslots)
		for s := 0; s < g.nslots; s++ {
			off := g.laneOff[s*g.lanes+l]
			if off < 0 || off >= tlen {
				c.errf("SM-VEC-MAP", c.groupLoc(gi),
					"slot offsets must index the value table",
					"lane %d slot %d offset %d out of range", l, s, off)
				continue
			}
			if prev, dup := seen[off]; dup {
				c.errf("SM-VEC-MAP", c.groupLoc(gi),
					"two slots of one lane must not share a table word",
					"lane %d slots %d and %d both map to offset %d",
					l, prev, s, off)
			}
			seen[off] = s
		}
	}
}

// checkDefUse replays the class program over slot space. loads is the
// declared gather set; anything else read must have been written by an
// earlier program entry. Conditional writes count — a lane that skips
// the write reads its own previous value, which is exactly the scalar
// machine's stale-t semantics the persistent row buffer reproduces.
func (c *vecChecker) checkDefUse(gi int, g *vecGroup) {
	loaded := make([]bool, g.nslots)
	for _, s := range g.loads {
		if s < 0 || int(s) >= g.nslots {
			c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
				"load slots must be in range", "load slot %d of %d", s, g.nslots)
			continue
		}
		loaded[s] = true
	}
	written := make([]bool, g.nslots)
	readable := func(s int32) bool {
		return int(s) < g.nslots && s >= 0 && (loaded[s] || written[s])
	}
	var ops [4]int32
	for pi := range g.prog {
		e := &g.prog[pi]
		switch e.kind {
		case seInstr, seSkipIfZeroF, seSkipIfNonzeroF:
			if int(e.idx) >= len(g.vinstrs) {
				c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
					"instruction entries must index vinstrs",
					"entry %d: idx %d of %d", pi, e.idx, len(g.vinstrs))
				continue
			}
			in := &g.vinstrs[e.idx]
			n := readOps(in, &ops)
			for k := 0; k < n; k++ {
				if !readable(ops[k]) {
					c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
						"every read slot must be a boundary load or written earlier",
						"entry %d reads slot %d before any write", pi, ops[k])
				}
			}
			if in.dst < 0 || int(in.dst) >= g.nslots {
				c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
					"destinations must be in range",
					"entry %d writes slot %d of %d", pi, in.dst, g.nslots)
				continue
			}
			written[in.dst] = true
		case seSkipIfZero, seSkipIfNonzero:
			if !readable(e.idx) {
				c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
					"skip selectors must be a boundary load or written earlier",
					"entry %d tests slot %d before any write", pi, e.idx)
			}
		default:
			c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
				"class programs hold only instruction and skip entries",
				"entry %d has kind %d", pi, e.kind)
		}
	}
	for _, o := range g.outs {
		if int(o.slot) >= g.nslots || o.slot < 0 || !written[o.slot] {
			c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
				"output slots must be written by the class program",
				"output slot %d never written", o.slot)
		}
	}
	for _, s := range g.stores {
		if int(s) >= g.nslots || s < 0 || !written[s] {
			c.errf("SM-VEC-DEFUSE", c.groupLoc(gi),
				"store slots must be written by the class program",
				"store slot %d never written", s)
		}
	}
}

// checkPositions recomputes the legality rule from the plan's partition
// DAG (data edges from cross-partition node adjacency, ordering edges
// from elided registers' cross readers).
func (c *vecChecker) checkPositions() {
	v := c.v
	dataPreds, ordPreds := v.partPreds()
	effPos := func(x int32) int32 {
		if g := v.groupAt[x]; g >= 0 {
			return v.groups[g].parts[0]
		}
		return x
	}
	for gi := range v.groups {
		g := &v.groups[gi]
		leader := g.parts[0]
		for _, p := range g.parts[1:] {
			for _, x := range dataPreds[p] {
				if v.groupAt[x] == int32(gi) {
					c.errf("SM-VEC-POS", c.groupLoc(gi),
						"data flow inside a class would need intra-evaluation ordering",
						"member %d has data predecessor %d in the same class", p, x)
					continue
				}
				if effPos(x) >= leader {
					c.errf("SM-VEC-POS", c.groupLoc(gi),
						"every data predecessor must be final before the leader evaluates",
						"member %d: predecessor %d resolves at %d ≥ leader %d",
						p, x, effPos(x), leader)
				}
			}
			for _, x := range ordPreds[p] {
				if v.groupAt[x] == int32(gi) {
					continue // gather-before-scatter covers in-class readers
				}
				if effPos(x) >= leader {
					c.errf("SM-VEC-POS", c.groupLoc(gi),
						"elided-register readers must run before the writer's class",
						"member %d: reader %d resolves at %d ≥ leader %d",
						p, x, effPos(x), leader)
				}
			}
		}
	}
}

// checkScatter verifies coverage: per lane, the member partition's
// change-detected outputs map to out slots with the member's consumer
// list, and every architectural-state offset the member writes appears
// in the scatter image (outs ∪ stores).
func (c *vecChecker) checkScatter(gi int, g *vecGroup) {
	v := c.v
	stateOffs := v.stateOffsets()
	for l, p := range g.parts {
		scattered := make(map[int32]bool)
		for _, o := range g.outs {
			scattered[g.laneOff[int(o.slot)*g.lanes+l]] = true
		}
		for _, s := range g.stores {
			scattered[g.laneOff[int(s)*g.lanes+l]] = true
		}
		part := &v.parts[p]
		outCovered := make(map[int32][]int32, len(g.outs))
		for _, o := range g.outs {
			outCovered[g.laneOff[int(o.slot)*g.lanes+l]] = o.consumers[l]
		}
		for oi := range part.outputs {
			po := &part.outputs[oi]
			cons, ok := outCovered[po.off]
			if !ok {
				c.errf("SM-VEC-SCATTER", c.groupLoc(gi),
					"every member output needs change detection at scatter",
					"lane %d partition %d output offset %d not an out slot",
					l, p, po.off)
				continue
			}
			if len(cons) != len(po.consumers) {
				c.errf("SM-VEC-SCATTER", c.groupLoc(gi),
					"out slots must carry the member's own consumer list",
					"lane %d output offset %d: %d consumers, member has %d",
					l, po.off, len(cons), len(po.consumers))
			}
		}
		// Architectural state written by this lane must scatter. Written
		// offsets are the lane images of slots the program writes.
		written := make(map[int32]bool, g.nslots)
		for _, in := range g.vinstrs {
			written[g.laneOff[int(in.dst)*g.lanes+l]] = true
		}
		for off := range written {
			if stateOffs[off] && !scattered[off] {
				c.errf("SM-VEC-SCATTER", c.groupLoc(gi),
					"state the class writes must reach the value table",
					"lane %d partition %d writes state offset %d without scatter",
					l, p, off)
			}
		}
		// Non-elided registers the member owns must be marked dirty.
		if l >= len(g.regs) || len(g.regs[l]) != len(part.regs) {
			c.errf("SM-VEC-SCATTER", c.groupLoc(gi),
				"each lane must carry its member's dirty-register list",
				"lane %d partition %d: reg list mismatch", l, p)
		} else if len(part.regs) > 0 && !g.hasRegs {
			c.errf("SM-VEC-SCATTER", c.groupLoc(gi),
				"a group with dirty registers must not skip the dirty walk",
				"lane %d partition %d owns %d register(s) but hasRegs is false",
				l, p, len(part.regs))
		}
	}
}

// checkUniform recomputes the load split from laneOff and the program's
// destinations. A slot marked uniform that some lane maps elsewhere, or
// that the program writes, would hand lanes a wrong boundary value; a
// constant row not holding its pool word in every lane would too.
func (c *vecChecker) checkUniform(gi int, g *vecGroup) {
	d := c.v.machine.d
	constVal := make(map[int32]uint64)
	for i, off := range c.v.machine.constOff {
		ws := d.Consts[i].Words
		for w := 0; w < bits.Words(d.Consts[i].Width); w++ {
			var x uint64
			if w < len(ws) {
				x = ws[w]
			}
			constVal[off+int32(w)] = x
		}
	}
	dst := make(map[int32]bool, len(g.vinstrs))
	for _, in := range g.vinstrs {
		dst[in.dst] = true
	}
	L := g.lanes
	want := make(map[int32]string, len(g.loads))
	for _, s := range g.loads {
		if s < 0 || int(s) >= g.nslots {
			continue
		}
		offs := g.laneOff[int(s)*L : int(s)*L+L]
		uni := !dst[s]
		for _, o := range offs {
			uni = uni && o == offs[0]
		}
		_, isConst := constVal[offs[0]]
		switch {
		case !uni:
			want[s] = "lane"
		case isConst:
			want[s] = "const"
		default:
			want[s] = "uniform"
		}
	}
	got := make(map[int32]string, len(g.loads))
	for _, set := range []struct {
		kind  string
		slots []int32
	}{{"lane", g.laneLoads}, {"uniform", g.uniLoads}, {"const", g.constRows}} {
		for _, s := range set.slots {
			if prev, dup := got[s]; dup {
				c.errf("SM-VEC-UNIFORM", c.groupLoc(gi),
					"each load belongs to exactly one gather class",
					"slot %d is both %s and %s", s, prev, set.kind)
			}
			got[s] = set.kind
		}
	}
	for s, k := range want {
		if got[s] != k {
			c.errf("SM-VEC-UNIFORM", c.groupLoc(gi),
				"the gather class must match laneOff and the program's writes",
				"load slot %d classified %q, recomputed %q", s, got[s], k)
		}
	}
	for s, k := range got {
		if _, ok := want[s]; !ok {
			c.errf("SM-VEC-UNIFORM", c.groupLoc(gi),
				"only declared loads are gathered",
				"slot %d classified %q is not a load", s, k)
		}
	}
	if len(g.uniform) != g.nslots {
		c.errf("SM-VEC-UNIFORM", c.groupLoc(gi),
			"the uniform-selector table covers every slot",
			"have %d entries, want %d", len(g.uniform), g.nslots)
		return
	}
	for s, u := range g.uniform {
		k := want[int32(s)]
		if u != (k == "uniform" || k == "const") {
			c.errf("SM-VEC-UNIFORM", c.groupLoc(gi),
				"a skip may decide from one word only on a uniform slot",
				"slot %d uniform=%v, recomputed class %q", s, u, k)
		}
		if u && dst[int32(s)] {
			c.errf("SM-VEC-UNIFORM", c.groupLoc(gi),
				"uniform slots are never written by the class program",
				"uniform slot %d is a destination", s)
		}
	}
	for _, s := range g.constRows {
		if want[s] != "const" {
			continue // reported above as a misclassification
		}
		x := constVal[g.laneOff[int(s)*L]]
		for l, y := range g.buf[int(s)*L : int(s)*L+L] {
			if y != x {
				c.errf("SM-VEC-UNIFORM", c.groupLoc(gi),
					"constant rows hold the pool value in every lane",
					"slot %d lane %d holds %#x, pool word is %#x", s, l, y, x)
				break
			}
		}
	}
}

// checkWakes expands every output's wake terms back into per-lane
// partition sets and compares them with the lane's consumer list, and
// checks the counts Stats.Wakes is computed from.
func (c *vecChecker) checkWakes(gi int, g *vecGroup) {
	np := int32(len(c.v.parts))
	for oi := range g.outs {
		o := &g.outs[oi]
		if len(o.consumers) != g.lanes || len(o.counts) != g.lanes {
			c.errf("SM-VEC-WAKE", c.groupLoc(gi),
				"every lane carries a consumer list and a wake count",
				"output %d: %d lists, %d counts for %d lanes",
				oi, len(o.consumers), len(o.counts), g.lanes)
			continue
		}
		got := make([]map[int32]bool, g.lanes)
		for l := range got {
			got[l] = make(map[int32]bool)
		}
		for _, tm := range o.terms {
			for src := tm.src; src != 0; src = src.Drop() {
				l := int32(src.Lowest())
				bit := l + tm.shift
				q := tm.w*64 + bit
				if l >= int32(g.lanes) || bit < 0 || bit >= 64 || q < 0 || q >= np {
					c.errf("SM-VEC-WAKE", c.groupLoc(gi),
						"wake terms must land on partition flags",
						"output %d term (w=%d shift=%d) lane %d wakes bit %d",
						oi, tm.w, tm.shift, l, q)
					continue
				}
				got[l][q] = true
			}
		}
		for _, f := range o.fanin {
			if f.q < 0 || f.q >= np || f.src>>uint(g.lanes) != 0 && g.lanes < 64 {
				c.errf("SM-VEC-WAKE", c.groupLoc(gi),
					"wake terms must land on partition flags",
					"output %d fan-in from lanes %#x wakes partition %d", oi, f.src, f.q)
				continue
			}
			for src := f.src; src != 0; src = src.Drop() {
				got[src.Lowest()][f.q] = true
			}
		}
		same := true
		for l, cons := range o.consumers {
			want := make(map[int32]bool, len(cons))
			for _, q := range cons {
				want[q] = true
			}
			eq := len(want) == len(got[l])
			for q := range want {
				eq = eq && got[l][q]
			}
			if !eq {
				c.errf("SM-VEC-WAKE", c.groupLoc(gi),
					"wake terms must expand to exactly the lane's consumers",
					"output %d lane %d: terms wake %d partition(s), consumers list %d",
					oi, l, len(got[l]), len(want))
			}
			if o.counts[l] != int32(len(cons)) {
				c.errf("SM-VEC-WAKE", c.groupLoc(gi),
					"per-lane wake counts must equal the consumer list lengths",
					"output %d lane %d: count %d, %d consumers", oi, l, o.counts[l], len(cons))
			}
			same = same && len(cons) == len(o.consumers[0])
		}
		wantN := int32(len(o.consumers[0]))
		if !same {
			wantN = -1
		}
		if o.nwake != wantN {
			c.errf("SM-VEC-WAKE", c.groupLoc(gi),
				"the shared wake count is set iff every lane has the same count",
				"output %d: nwake %d", oi, o.nwake)
		}
	}
}

// checkRuns expands the activity runs and compares them with the member
// list lane by lane.
func (c *vecChecker) checkRuns(gi int, g *vecGroup) {
	next := int32(0)
	for ri, r := range g.runs {
		if r.lane != next || r.hi <= r.lo || int(r.lane+r.hi-r.lo) > len(g.parts) {
			c.errf("SM-VEC-RUNS", c.groupLoc(gi),
				"activity runs tile the lanes in order without gaps",
				"run %d covers lanes [%d,%d), expected to start at lane %d",
				ri, r.lane, r.lane+r.hi-r.lo, next)
			return
		}
		for k := int32(0); k < r.hi-r.lo; k++ {
			if p := g.parts[r.lane+k]; p != r.lo+k {
				c.errf("SM-VEC-RUNS", c.groupLoc(gi),
					"a run maps consecutive lanes to consecutive members",
					"run %d lane %d reads partition %d, member is %d",
					ri, r.lane+k, r.lo+k, p)
			}
		}
		next = r.lane + r.hi - r.lo
	}
	if int(next) != len(g.parts) {
		c.errf("SM-VEC-RUNS", c.groupLoc(gi),
			"activity runs must cover every lane",
			"runs cover %d of %d lanes", next, len(g.parts))
	}
}
