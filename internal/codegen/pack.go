package codegen

import (
	"fmt"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/sim"
)

// Boolean-expression fusion: the generated-code form of the batch
// engine's bit-packing pass. The interpreter packs 64 lanes of a 1-bit
// op into one word; a generated scalar simulator has one lane, so the
// win is eliminating the value-table round-trip instead — a single-use
// 1-bit unsigned producer skips its statement entirely and its
// expression is substituted into the consumer's operand load, letting
// the Go compiler fuse whole control cones into single word-ops
// (and 1-bit muxes emit branchless as s&b | (s^1)&c).
//
// Eligibility mirrors the interpreter's fusion legality (fuse.go) and
// packability (pack.go) rules:
//
//   - the producer computes a 1-bit unsigned value from 1-bit unsigned
//     operands with a packable opcode;
//   - its destination is dead outside one reader: not an output, reg
//     next/out, input, sink operand, or (CCSS) partition output, and
//     exactly one instruction reads it;
//   - the reader is narrow, in the same partition (CCSS), and neither
//     side sits inside a mux-shadow arm cone (cones emit out of schedule
//     order, which would break the clobber reasoning below);
//   - no entry between producer and reader overwrites any table slot
//     the producer's expression transitively reads — the substituted
//     expression must evaluate to the value the store would have held.
//
// An expression-length cap stops chain inlining from exploding a
// consumer statement; capped producers simply emit normally.

// inlineExprCap bounds a substituted expression's rendered length.
const inlineExprCap = 160

// genReadOffsets appends the single-word table offsets instruction in
// reads (narrow instructions only; wide readers are never fused over).
func genReadOffsets(in *sim.GenInstr, dst []int32) []int32 {
	switch in.Code {
	case sim.ICopy, sim.INeg, sim.INot, sim.IAndr, sim.IOrr, sim.IXorr,
		sim.IBits, sim.IHead, sim.ITail, sim.IShl, sim.IShr, sim.IMemRead:
		return append(dst, in.A)
	case sim.IMux:
		return append(dst, in.A, in.B, in.C)
	default:
		return append(dst, in.A, in.B)
	}
}

// genWriteSpan returns the destination word span of an instruction.
func genWriteSpan(in *sim.GenInstr) (int32, int32) {
	return in.Dst, int32(bits.Words(int(in.DW)))
}

// packable1 reports whether in computes a 1-bit unsigned result from
// 1-bit unsigned operands with an opcode expressible as a pure boolean
// word expression (the codegen mirror of sim's packablePcode).
func (g *gen) packable1(in *sim.GenInstr) bool {
	if in.Wide || in.DW != 1 {
		return false
	}
	s := &g.prog.D.Signals[in.Out]
	if s.Width != 1 || s.Signed {
		return false
	}
	switch in.Code {
	case sim.ICopy, sim.INeg, sim.IAndr, sim.IOrr, sim.IXorr, sim.IBits,
		sim.ITail, sim.IHead, sim.INot:
		return in.AW == 1 && !in.SA
	case sim.IAnd, sim.IMul, sim.IOr, sim.IXor, sim.IAdd, sim.ISub,
		sim.IEq, sim.INeq, sim.ILt, sim.ILeq, sim.IGt, sim.IGeq:
		return in.AW == 1 && in.BW == 1 && !in.SA && !in.SB
	case sim.IMux:
		return in.AW == 1 && in.BW == 1 && in.CW == 1 && !in.SB && !in.SC
	}
	return false
}

// boolExpr renders in as a masked-correct 1-bit Go expression, reading
// operands through tref so producer chains inline transitively.
func (g *gen) boolExpr(in *sim.GenInstr) string {
	a := func() string { return g.tref(in.A) }
	b := func() string { return g.tref(in.B) }
	c := func() string { return g.tref(in.C) }
	switch in.Code {
	case sim.ICopy, sim.INeg, sim.IAndr, sim.IOrr, sim.IXorr, sim.IBits,
		sim.ITail, sim.IHead:
		// All identity on a 1-bit operand (-a & 1 == a; the reductions
		// and extractions of one bit are that bit).
		return a()
	case sim.INot:
		return fmt.Sprintf("(%s ^ 1)", a())
	case sim.IAnd, sim.IMul:
		return fmt.Sprintf("(%s & %s)", a(), b())
	case sim.IOr:
		return fmt.Sprintf("(%s | %s)", a(), b())
	case sim.IXor, sim.IAdd, sim.ISub:
		// 1-bit add/sub are addition mod 2.
		return fmt.Sprintf("(%s ^ %s)", a(), b())
	case sim.IEq:
		return fmt.Sprintf("(%s ^ %s ^ 1)", a(), b())
	case sim.INeq:
		return fmt.Sprintf("(%s ^ %s)", a(), b())
	case sim.ILt:
		return fmt.Sprintf("((%s ^ 1) & %s)", a(), b())
	case sim.ILeq:
		return fmt.Sprintf("((%s ^ 1) | %s)", a(), b())
	case sim.IGt:
		return fmt.Sprintf("(%s &^ %s)", a(), b())
	case sim.IGeq:
		return fmt.Sprintf("(%s | (%s ^ 1))", a(), b())
	case sim.IMux:
		return fmt.Sprintf("(%s&%s | (%s^1)&%s)", a(), b(), a(), c())
	}
	return g.tw(in.Dst)
}

// tref renders a single-word table read: the inlined producer's
// expression when the offset was fused away, a plain load otherwise.
func (g *gen) tref(off int32) string {
	if e, ok := g.inlineExpr[off]; ok {
		g.usesT = true // an inlined expression reads table words
		return e
	}
	return g.tw(off)
}

// loadT renders a narrow operand, sign-extending stored patterns when
// the operand is signed. Unsigned operands route through tref (inlined
// producers are always unsigned, so the signed path never sees one).
func (g *gen) loadT(off, w int32, signed bool) string {
	if signed && w < 64 {
		return fmt.Sprintf("simrt.Sext64(%s, %d)", g.tw(off), w)
	}
	return g.tref(off)
}

// computeInlineFusion decides which producers fuse into their consumer
// and pre-renders their expressions (walked in schedule order, so a
// chain's inner expressions exist before its outer ones).
func (g *gen) computeInlineFusion() {
	pr := g.prog
	d := pr.D
	g.inlineExpr = make(map[int32]string)

	// Live offsets: table slots read outside the instruction stream.
	live := make([]bool, pr.TableLen)
	mark := func(off int32) {
		if off >= 0 && int(off) < len(live) {
			live[off] = true
		}
	}
	for _, o := range d.Outputs {
		mark(pr.Off[o])
	}
	for ri := range d.Regs {
		mark(pr.Off[d.Regs[ri].Next])
		mark(pr.Off[d.Regs[ri].Out])
	}
	for _, in := range d.Inputs {
		mark(pr.Off[in])
	}
	for i := range pr.MemWrites {
		w := &pr.MemWrites[i]
		mark(w.Addr.Off)
		mark(w.En.Off)
		mark(w.Data.Off)
		mark(w.Mask.Off)
	}
	for i := range pr.Displays {
		mark(pr.Displays[i].En.Off)
		for _, a := range pr.Displays[i].Args {
			mark(a.Off)
		}
	}
	for i := range pr.Checks {
		mark(pr.Checks[i].En.Off)
		mark(pr.Checks[i].Pred.Off)
	}
	// CCSS change detection compares partition outputs after each run.
	partOf := make(map[netlist.SignalID]int)
	if pr.Plan != nil {
		for pi := range pr.Plan.Parts {
			for _, o := range pr.Plan.Parts[pi].Outputs {
				mark(pr.Off[o.Sig])
			}
			for _, n := range pr.Plan.Parts[pi].Members {
				partOf[netlist.SignalID(n)] = pi
			}
		}
	}

	// Single-reader analysis (wide readers disqualify via the Wide check
	// at the use site, but still count as readers).
	readers := make([]int32, pr.TableLen)
	readerOf := make([]int32, pr.TableLen)
	var offs []int32
	for ii := range pr.Instrs {
		in := &pr.Instrs[ii]
		if in.Wide {
			// Conservative: a wide instruction reads whole operand spans.
			for _, sp := range [][2]int32{{in.A, in.AW}, {in.B, in.BW}, {in.C, in.CW}} {
				if sp[0] < 0 {
					continue
				}
				for w := int32(0); w < int32(bits.Words(int(sp[1]))); w++ {
					if o := sp[0] + w; int(o) < len(readers) {
						readers[o] += 2 // never the single reader
					}
				}
			}
			continue
		}
		offs = genReadOffsets(in, offs[:0])
		for _, o := range offs {
			if o >= 0 && int(o) < len(readers) {
				readers[o]++
				readerOf[o] = int32(ii)
			}
		}
	}

	// leavesOf tracks, per fused offset, the raw table slots its
	// expression transitively reads (for the clobber scan of chains).
	leavesOf := make(map[int32][]int32)

	for pos, e := range pr.Sched {
		if e.Kind != sim.GenInstrEntry {
			continue
		}
		in := &pr.Instrs[e.Idx]
		if !g.packable1(in) || live[in.Dst] || readers[in.Dst] != 1 {
			continue
		}
		ri := readerOf[in.Dst]
		rd := &pr.Instrs[ri]
		if rd.Wide {
			continue
		}
		if g.shadows != nil {
			if g.shadows.Shadowed[in.Out] || g.shadows.Shadowed[rd.Out] {
				continue
			}
			if _, armed := g.shadows.Arms[rd.Out]; armed {
				continue
			}
		}
		if pr.Plan != nil && partOf[in.Out] != partOf[rd.Out] {
			continue
		}
		posB := int32(-1)
		if int(rd.Out) < len(pr.SchedPosOf) {
			posB = pr.SchedPosOf[rd.Out]
		}
		if posB <= int32(pos) {
			continue
		}
		// Transitive leaf set: operands that are themselves fused
		// contribute their leaves, everything else itself.
		offs = genReadOffsets(in, offs[:0])
		var leaves []int32
		for _, o := range offs {
			if l, ok := leavesOf[o]; ok {
				leaves = append(leaves, l...)
			} else {
				leaves = append(leaves, o)
			}
		}
		// Clobber scan: nothing between producer and reader may write a
		// leaf, or the substituted expression diverges from the store.
		clobbered := false
		for p := int32(pos) + 1; p < posB && !clobbered; p++ {
			pe := &pr.Sched[p]
			if pe.Kind != sim.GenInstrEntry {
				continue
			}
			wOff, wN := genWriteSpan(&pr.Instrs[pe.Idx])
			for _, l := range leaves {
				if l >= wOff && l < wOff+wN {
					clobbered = true
					break
				}
			}
		}
		if clobbered {
			continue
		}
		expr := g.boolExpr(in)
		if len(expr) > inlineExprCap {
			continue
		}
		g.inlineExpr[in.Dst] = expr
		leavesOf[in.Dst] = leaves
		g.inlinedCount++
	}
}
