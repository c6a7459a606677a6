package codegen

import (
	"fmt"
	"strings"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/sched"
	"essent/internal/sim"
)

// maskLit renders `expr` masked to dw bits.
func maskLit(expr string, dw int32) string {
	if dw >= 64 {
		return expr
	}
	return fmt.Sprintf("(%s) & %#x", expr, uint64(1)<<uint(dw)-1)
}

// emitEntry emits one schedule entry into the current function body.
// Instructions claimed by a mux arm are skipped here and emitted inside
// the owning mux's branch.
func (g *gen) emitEntry(e sim.GenSched) {
	switch e.Kind {
	case sim.GenInstrEntry:
		in := &g.prog.Instrs[e.Idx]
		if g.shadows != nil && g.shadows.Shadowed[in.Out] {
			return
		}
		if _, fused := g.inlineExpr[in.Dst]; fused {
			// Boolean-expression fusion: the store is dead — the single
			// reader evaluates this producer inline (see pack.go).
			return
		}
		g.emitInstrShadowAware(in)
	case sim.GenDisplayEntry:
		g.emitDisplayCall(e.Idx)
	case sim.GenCheckEntry:
		g.emitCheckCall(e.Idx)
	case sim.GenMemWriteEntry:
		g.emitMemWriteCapture(e.Idx)
	}
}

// emitInstrShadowAware expands muxes with claimed arm cones into branches
// containing their cones; everything else emits normally.
func (g *gen) emitInstrShadowAware(in *sim.GenInstr) {
	if g.shadows != nil && in.Code == sim.IMux {
		if arms, ok := g.shadows.Arms[in.Out]; ok {
			g.emitShadowedMux(in, arms)
			return
		}
	}
	g.emitInstr(in)
}

// emitShadowedMux emits `if sel { <T cone>; dst = T } else { <F cone>;
// dst = F }` — §III-B's conditional evaluation of multiplexor ways.
// Reset muxes (Unlikely) put the likely arm first.
func (g *gen) emitShadowedMux(in *sim.GenInstr, arms *sched.MuxArms) {
	// The two arms evaluate different instruction counts; flush the
	// straight-line tally before branching and close out each arm so the
	// ops counter reflects the path actually taken.
	g.flushOps()
	emitArm := func(cone []netlist.SignalID, assign string) {
		for _, sig := range cone {
			ii := g.prog.InstrOf[sig]
			if ii >= 0 {
				g.emitInstrShadowAware(&g.prog.Instrs[ii])
			}
		}
		if assign != "" {
			g.p("%s", assign)
		}
		g.countOp()
		g.flushOps()
	}
	tAssign := g.muxArmAssign(in, true)
	fAssign := g.muxArmAssign(in, false)
	op := g.opOf(in.Out)
	if op != nil && op.Unlikely {
		g.p("if %s == 0 {", g.tw(in.A))
		emitArm(arms.F, fAssign)
		g.p("} else {")
		emitArm(arms.T, tAssign)
		g.p("}")
		return
	}
	g.p("if %s != 0 {", g.tw(in.A))
	emitArm(arms.T, tAssign)
	g.p("} else {")
	emitArm(arms.F, fAssign)
	g.p("}")
}

// muxArmAssign renders the assignment of one mux arm to the destination
// ("" for a narrow self-copy, see store).
func (g *gen) muxArmAssign(in *sim.GenInstr, tArm bool) string {
	if in.Wide {
		if tArm {
			return fmt.Sprintf("s.sc.Copy(%s, %s, %d, %v, %d)",
				g.view(in.Dst, in.DW), g.view(in.B, in.BW), in.BW, in.SB, in.DW)
		}
		return fmt.Sprintf("s.sc.Copy(%s, %s, %d, %v, %d)",
			g.view(in.Dst, in.DW), g.view(in.C, in.CW), in.CW, in.SC, in.DW)
	}
	if tArm {
		return store(g.tw(in.Dst), g.armValue(in.B, in.BW, in.SB, in.DW))
	}
	return store(g.tw(in.Dst), g.armValue(in.C, in.CW, in.SC, in.DW))
}

// armValue renders a narrow mux arm (or copy source) of width w as a
// dw-bit value.
func (g *gen) armValue(off, w int32, signed bool, dw int32) string {
	if !signed && w <= dw {
		return g.tref(off)
	}
	return maskLit(g.loadT(off, w, signed), dw)
}

// store renders `dst = rhs`, or "" for a self-copy: the hold arm of an
// elided register reads the storage it writes, and go vet rejects the
// no-op assignment. The caller still counts the instruction.
func store(dst, rhs string) string {
	if dst == rhs {
		return ""
	}
	return dst + " = " + rhs
}

func (g *gen) emitInstr(in *sim.GenInstr) {
	g.countOp()
	if in.Wide {
		g.emitWide(in)
		return
	}
	d := g.tw(in.Dst)
	a := func() string { return g.loadT(in.A, in.AW, in.SA) }
	b := func() string { return g.loadT(in.B, in.BW, in.SB) }
	au := func() string { return g.tref(in.A) }
	bu := func() string { return g.tref(in.B) }

	switch in.Code {
	case sim.ICopy:
		if st := store(d, g.armValue(in.A, in.AW, in.SA, in.DW)); st != "" {
			g.p("%s", st)
		}
	case sim.IMux:
		if g.packable1(in) {
			// Branchless 1-bit mux: one word op instead of a branch, and
			// fused operand expressions substitute directly.
			g.p("%s = %s&%s | (%s^1)&%s", d, au(), bu(), au(), g.tref(in.C))
			break
		}
		tS := store(d, g.armValue(in.B, in.BW, in.SB, in.DW))
		fS := store(d, g.armValue(in.C, in.CW, in.SC, in.DW))
		op := g.opOf(in.Out)
		switch {
		case tS == "" && fS == "":
			// Both arms hold the destination: nothing to store.
		case fS == "":
			g.p("if %s != 0 { %s }", au(), tS)
		case tS == "":
			g.p("if %s == 0 { %s }", au(), fS)
		case op != nil && op.Unlikely:
			// Cold-path layout: the likely (non-reset) arm first.
			g.p("if %s == 0 { %s } else { %s }", au(), fS, tS)
		default:
			g.p("if %s != 0 { %s } else { %s }", au(), tS, fS)
		}
	case sim.IMemRead:
		m := &g.prog.D.Mems[in.Mem]
		g.p("if a := %s; a < %d { %s = s.mems[%d][a] } else { %s = 0 }",
			au(), m.Depth, d, in.Mem, d)
	case sim.IAdd:
		g.p("%s = %s", d, maskLit(a()+" + "+b(), in.DW))
	case sim.ISub:
		g.p("%s = %s", d, maskLit(a()+" - "+b(), in.DW))
	case sim.IMul:
		g.p("%s = %s", d, maskLit(a()+" * "+b(), in.DW))
	case sim.IDiv:
		if in.SA {
			g.p("%s = simrt.DivS64(%s, %d, %s, %d, %d)",
				d, g.tw(in.A), in.AW, g.tw(in.B), in.BW, in.DW)
		} else {
			g.p("%s = simrt.DivU64(%s, %s, %d)", d, au(), bu(), in.DW)
		}
	case sim.IRem:
		if in.SA {
			g.p("%s = simrt.RemS64(%s, %d, %s, %d, %d)",
				d, g.tw(in.A), in.AW, g.tw(in.B), in.BW, in.DW)
		} else {
			g.p("%s = simrt.RemU64(%s, %s, %d)", d, au(), bu(), in.DW)
		}
	case sim.ILt, sim.ILeq, sim.IGt, sim.IGeq:
		cmpOp := map[sim.ICode]string{
			sim.ILt: "<", sim.ILeq: "<=", sim.IGt: ">", sim.IGeq: ">=",
		}[in.Code]
		if in.SA {
			g.p("%s = simrt.B2U(int64(%s) %s int64(%s))", d, a(), cmpOp, b())
		} else {
			g.p("%s = simrt.B2U(%s %s %s)", d, au(), cmpOp, bu())
		}
	case sim.IEq:
		g.p("%s = simrt.B2U(%s == %s)", d, a(), b())
	case sim.INeq:
		g.p("%s = simrt.B2U(%s != %s)", d, a(), b())
	case sim.IShl:
		g.p("%s = %s", d, maskLit(fmt.Sprintf("%s << %d", au(), in.P0), in.DW))
	case sim.IShr:
		g.p("%s = simrt.Shr64(%s, %d, %d, %v, %d)", d, au(), in.AW, in.P0, in.SA, in.DW)
	case sim.IDshl:
		g.p("%s = %s", d, maskLit(fmt.Sprintf("%s << %s", au(), bu()), in.DW))
	case sim.IDshr:
		g.p("%s = simrt.Shr64(%s, %d, int(%s), %v, %d)",
			d, au(), in.AW, bu(), in.SA, in.DW)
	case sim.INeg:
		g.p("%s = %s", d, maskLit("-"+a(), in.DW))
	case sim.INot:
		g.p("%s = %s", d, maskLit("^"+au(), in.DW))
	case sim.IAnd:
		g.p("%s = %s", d, maskLit(a()+" & "+b(), in.DW))
	case sim.IOr:
		g.p("%s = %s", d, maskLit(a()+" | "+b(), in.DW))
	case sim.IXor:
		g.p("%s = %s", d, maskLit(a()+" ^ "+b(), in.DW))
	case sim.IAndr:
		g.p("%s = simrt.B2U(%s == %#x)", d, au(), bits.Mask64(^uint64(0), int(in.AW)))
	case sim.IOrr:
		g.p("%s = simrt.B2U(%s != 0)", d, au())
	case sim.IXorr:
		g.p("%s = simrt.Parity64(%s)", d, au())
	case sim.ICat:
		g.p("%s = %s", d,
			maskLit(fmt.Sprintf("%s<<%d | %s", au(), in.BW, bu()), in.DW))
	case sim.IBits:
		g.p("%s = %s", d,
			maskLit(fmt.Sprintf("%s >> %d", au(), in.P1), in.P0-in.P1+1))
	case sim.IHead:
		g.p("%s = %s >> %d", d, au(), in.AW-in.P0)
	case sim.ITail:
		g.p("%s = %s", d, maskLit(au(), in.AW-in.P0))
	default:
		g.p("// unimplemented narrow opcode %d", in.Code)
	}
}

func (g *gen) opOf(out netlist.SignalID) *netlist.Op {
	if out < 0 || int(out) >= len(g.prog.D.Signals) {
		return nil
	}
	return g.prog.D.Signals[out].Op
}

func (g *gen) emitWide(in *sim.GenInstr) {
	dst := g.view(in.Dst, in.DW)
	va := func() string { return g.view(in.A, in.AW) }
	vb := func() string { return g.view(in.B, in.BW) }
	switch in.Code {
	case sim.ICopy:
		g.p("s.sc.Copy(%s, %s, %d, %v, %d)", dst, va(), in.AW, in.SA, in.DW)
	case sim.IMux:
		g.p("s.sc.Mux(%s, %s, %s, %d, %v, %s, %d, %v, %d)",
			dst, g.tw(in.A), g.view(in.B, in.BW), in.BW, in.SB,
			g.view(in.C, in.CW), in.CW, in.SC, in.DW)
	case sim.IMemRead:
		m := &g.prog.D.Mems[in.Mem]
		g.p("simrt.MemRead(%s, s.mems[%d], %d, %d, %s)",
			dst, in.Mem, bits.Words(m.Width), m.Depth, g.tw(in.A))
	case sim.IAdd:
		g.p("s.sc.Add(%s, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.ISub:
		g.p("s.sc.Sub(%s, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.IMul:
		g.p("s.sc.Mul(%s, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.IDiv:
		g.p("s.sc.Div(%s, %s, %d, %v, %s, %d, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.DW)
	case sim.IRem:
		g.p("s.sc.Rem(%s, %s, %d, %v, %s, %d, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.DW)
	case sim.ILt, sim.ILeq, sim.IGt, sim.IGeq:
		cmpOp := map[sim.ICode]string{
			sim.ILt: "< 0", sim.ILeq: "<= 0", sim.IGt: "> 0", sim.IGeq: ">= 0",
		}[in.Code]
		g.p("%s = simrt.B2U(s.sc.Cmp(%s, %d, %s, %d, %v) %s)",
			g.tw(in.Dst), va(), in.AW, vb(), in.BW, in.SA, cmpOp)
	case sim.IEq:
		g.p("%s = simrt.B2U(s.sc.Eq(%s, %d, %v, %s, %d, %v))",
			g.tw(in.Dst), va(), in.AW, in.SA, vb(), in.BW, in.SB)
	case sim.INeq:
		g.p("%s = simrt.B2U(!s.sc.Eq(%s, %d, %v, %s, %d, %v))",
			g.tw(in.Dst), va(), in.AW, in.SA, vb(), in.BW, in.SB)
	case sim.IShl:
		g.p("s.sc.Shl(%s, %s, %d, %d)", dst, va(), in.P0, in.DW)
	case sim.IShr:
		g.p("s.sc.Shr(%s, %s, %d, %d, %v, %d)", dst, va(), in.P0, in.AW, in.SA, in.DW)
	case sim.IDshl:
		g.p("s.sc.Shl(%s, %s, int(%s), %d)", dst, va(), g.tw(in.B), in.DW)
	case sim.IDshr:
		g.p("s.sc.Shr(%s, %s, int(%s), %d, %v, %d)",
			dst, va(), g.tw(in.B), in.AW, in.SA, in.DW)
	case sim.INeg:
		g.p("s.sc.Neg(%s, %s, %d, %v, %d)", dst, va(), in.AW, in.SA, in.DW)
	case sim.INot:
		g.p("s.sc.Not(%s, %s, %d)", dst, va(), in.DW)
	case sim.IAnd:
		g.p("s.sc.Logic(%s, 0, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.IOr:
		g.p("s.sc.Logic(%s, 1, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.IXor:
		g.p("s.sc.Logic(%s, 2, %s, %d, %v, %s, %d, %v, %d)",
			dst, va(), in.AW, in.SA, vb(), in.BW, in.SB, in.DW)
	case sim.IAndr:
		g.p("%s = simrt.AndR(%s, %d)", g.tw(in.Dst), va(), in.AW)
	case sim.IOrr:
		g.p("%s = simrt.OrR(%s)", g.tw(in.Dst), va())
	case sim.IXorr:
		g.p("%s = simrt.XorR(%s)", g.tw(in.Dst), va())
	case sim.ICat:
		g.p("s.sc.Cat(%s, %s, %d, %s, %d)", dst, va(), in.AW, vb(), in.BW)
	case sim.IBits:
		g.p("s.sc.Bits(%s, %s, %d, %d)", dst, va(), in.P0, in.P1)
	case sim.IHead:
		g.p("s.sc.Bits(%s, %s, %d, %d)", dst, va(), in.AW-1, in.AW-in.P0)
	case sim.ITail:
		g.p("s.sc.Copy(%s, %s, %d, false, %d)", dst, va(), in.AW, in.DW)
	default:
		g.p("// unimplemented wide opcode %d", in.Code)
	}
}

// emitDisplayCall guards and calls a cold display function.
func (g *gen) emitDisplayCall(i int32) {
	disp := &g.prog.Displays[i]
	g.p("if %s&1 == 1 { s.display%d() }", g.tw(disp.En.Off), i)
	// Cold body, generated once.
	var cb strings.Builder
	fmt.Fprintf(&cb, "//go:noinline\nfunc (s *Sim) display%d() {\n", i)
	format, args := translateFormat(disp.Format, disp.Args)
	fmt.Fprintf(&cb, "  fmt.Fprintf(s.Out, %q%s)\n", format, args)
	cb.WriteString("}\n")
	g.cold = append(g.cold, cb.String())
}

// translateFormat converts FIRRTL %d/%x/%b/%c directives to Go fmt calls.
func translateFormat(f string, args []sim.GenOperand) (string, string) {
	var out strings.Builder
	var argExprs []string
	ai := 0
	for i := 0; i < len(f); i++ {
		if f[i] != '%' || i+1 >= len(f) {
			out.WriteByte(f[i])
			continue
		}
		i++
		verb := f[i]
		if verb == '%' {
			out.WriteString("%%")
			continue
		}
		if ai >= len(args) {
			out.WriteString("%%!missing")
			continue
		}
		o := args[ai]
		ai++
		words := fmt.Sprintf("s.t[%d:%d]", o.Off, o.Off+int32(bits.Words(int(o.W))))
		switch verb {
		case 'd':
			out.WriteString("%s")
			argExprs = append(argExprs,
				fmt.Sprintf("simrt.FormatBase(%s, %d, %v, 10)", words, o.W, o.Signed))
		case 'x':
			out.WriteString("%s")
			argExprs = append(argExprs,
				fmt.Sprintf("simrt.FormatBase(%s, %d, %v, 16)", words, o.W, o.Signed))
		case 'b':
			out.WriteString("%s")
			argExprs = append(argExprs,
				fmt.Sprintf("simrt.FormatBase(%s, %d, %v, 2)", words, o.W, o.Signed))
		case 'c':
			out.WriteString("%c")
			argExprs = append(argExprs, fmt.Sprintf("byte(s.t[%d])", o.Off))
		default:
			fmt.Fprintf(&out, "%%!%c", verb)
			ai--
		}
	}
	argStr := ""
	if len(argExprs) > 0 {
		argStr = ", " + strings.Join(argExprs, ", ")
	}
	return out.String(), argStr
}

// emitCheckCall guards and calls a cold check handler.
func (g *gen) emitCheckCall(i int32) {
	c := &g.prog.Checks[i]
	if c.Stop {
		g.p("if %s&1 == 1 { s.check%d() }", g.tw(c.En.Off), i)
	} else {
		g.p("if %s&1 == 1 && %s&1 == 0 { s.check%d() }",
			g.tw(c.En.Off), g.tw(c.Pred.Off), i)
	}
	var cb strings.Builder
	fmt.Fprintf(&cb, "//go:noinline\nfunc (s *Sim) check%d() {\n", i)
	cb.WriteString("  if s.evalErr != nil { return }\n")
	if c.Stop {
		fmt.Fprintf(&cb, "  s.evalErr = &StopError{Code: %d, Cycle: s.cycle}\n", c.Code)
	} else {
		fmt.Fprintf(&cb, "  s.evalErr = &AssertError{Msg: %q, Cycle: s.cycle}\n", c.Msg)
	}
	cb.WriteString("}\n")
	g.cold = append(g.cold, cb.String())
}

// emitMemWriteCapture buffers an enabled write.
func (g *gen) emitMemWriteCapture(i int32) {
	w := &g.prog.MemWrites[i]
	nw := bits.Words(int(w.Data.W))
	g.p("if %s&1 == 1 && %s&1 == 1 {", g.tw(w.En.Off), g.tw(w.Mask.Off))
	g.p("  s.pendValid[%d] = true", i)
	g.p("  s.pendAddr[%d] = %s", i, g.tw(w.Addr.Off))
	g.p("  copy(s.pendData[%d], %s)", i, g.span(w.Data.Off, int32(nw)))
	g.p("} else { s.pendValid[%d] = false }", i)
}

// emitCommit emits the body of commit, the end-of-cycle state advance
// shared by both modes.
func (g *gen) emitCommit() {
	pr := g.prog
	d := pr.D
	// Two-phase register copies (full-cycle mode commits every cycle;
	// CCSS handles its registers in partition-dirty blocks).
	if g.opts.Mode == ModeFullCycle {
		for _, ri := range pr.RegCopy {
			r := &d.Regs[ri]
			no, oo := pr.Off[r.Next], pr.Off[r.Out]
			for w := int32(0); w < int32(bits.Words(d.Signals[r.Out].Width)); w++ {
				g.p("  %s = %s // %s", g.tw(oo+w), g.tw(no+w), r.Name)
			}
		}
	} else {
		g.emitCCSSRegCommits()
	}
	// Pending memory writes.
	for i := range pr.MemWrites {
		w := &pr.MemWrites[i]
		m := &d.Mems[w.Mem]
		nw := bits.Words(m.Width)
		g.p("  if s.pendValid[%d] {", i)
		g.p("    s.pendValid[%d] = false", i)
		g.p("    if a := s.pendAddr[%d]; a < %d {", i, m.Depth)
		if g.opts.Mode == ModeCCSS {
			g.p("      base := int(a) * %d", nw)
			g.p("      if !simrt.EqualWords(s.mems[%d][base:base+%d], s.pendData[%d]) {",
				w.Mem, nw, i)
			g.p("        copy(s.mems[%d][base:base+%d], s.pendData[%d])", w.Mem, nw, i)
			for _, p := range pr.Plan.MemReaderParts[w.Mem] {
				g.p("        s.flags[%d] = true", p)
			}
			if g.opts.Serve && len(pr.Plan.MemReaderParts[w.Mem]) > 0 {
				g.p("        s.stats[%d] += %d", statWakes, len(pr.Plan.MemReaderParts[w.Mem]))
			}
			g.p("      }")
		} else {
			g.p("      copy(s.mems[%d][int(a)*%d:int(a)*%d+%d], s.pendData[%d])",
				w.Mem, nw, nw, nw, i)
		}
		g.p("    }")
		g.p("  }")
	}
}

// emitCCSSRegCommits emits per-partition dirty blocks: compare, copy, and
// wake for non-elided registers.
func (g *gen) emitCCSSRegCommits() {
	pr := g.prog
	d := pr.D
	for pi, part := range pr.Plan.Parts {
		if len(part.Regs) == 0 {
			continue
		}
		g.p("  if s.pd[%d] {", pi)
		g.p("    s.pd[%d] = false", pi)
		for _, ri := range part.Regs {
			r := &d.Regs[ri]
			no, oo := pr.Off[r.Next], pr.Off[r.Out]
			nw := int32(bits.Words(d.Signals[r.Out].Width))
			if g.opts.Serve {
				g.p("    s.stats[%d]++", statOutputCompares)
			}
			if nw == 1 {
				g.p("    if %s != %s { // %s", g.tw(oo), g.tw(no), r.Name)
				g.p("      %s = %s", g.tw(oo), g.tw(no))
			} else {
				g.p("    if !simrt.EqualWords(%s, %s) { // %s",
					g.span(oo, nw), g.span(no, nw), r.Name)
				g.p("      copy(%s, %s)", g.span(oo, nw), g.span(no, nw))
			}
			if g.opts.Serve {
				g.p("      s.stats[%d]++", statSignalChanges)
			}
			for _, p := range pr.Plan.RegReaderParts[ri] {
				g.p("      s.flags[%d] = true", p)
			}
			if g.opts.Serve && len(pr.Plan.RegReaderParts[ri]) > 0 {
				g.p("      s.stats[%d] += %d", statWakes, len(pr.Plan.RegReaderParts[ri]))
			}
			g.p("    }")
		}
		g.p("  }")
	}
}

// emitFullCycleStep emits Step plus chunked eval functions.
func (g *gen) emitFullCycleStep() {
	const chunkSize = 400
	nChunks := (len(g.prog.Sched) + chunkSize - 1) / chunkSize
	g.p("// Step simulates n cycles (full-cycle schedule).")
	g.p("func (s *Sim) Step(n int) error {")
	g.p("  for i := 0; i < n; i++ {")
	g.p("    if s.stopErr != nil { return s.stopErr }")
	for c := 0; c < nChunks; c++ {
		g.p("    s.eval%d()", c)
	}
	g.p("    err := s.evalErr")
	g.p("    s.evalErr = nil")
	g.p("    s.commit()")
	g.p("    s.cycle++")
	if g.opts.Serve {
		g.p("    s.stats[%d]++", statCycles)
	}
	g.p("    if err != nil { s.stopErr = err; return err }")
	g.p("  }")
	g.p("  return nil")
	g.p("}")
	g.p("")
	for c := 0; c < nChunks; c++ {
		lo := c * chunkSize
		hi := min(lo+chunkSize, len(g.prog.Sched))
		g.fn(fmt.Sprintf("(s *Sim) eval%d()", c), func() {
			for _, e := range g.prog.Sched[lo:hi] {
				g.emitEntry(e)
			}
			g.flushOps()
		})
	}
}

// emitCCSSStep emits the partition-walking Step with input change
// detection and one function per partition.
func (g *gen) emitCCSSStep() {
	pr := g.prog
	d := pr.D
	plan := pr.Plan

	g.p("// Step simulates n cycles (CCSS schedule: conditional partitions,")
	g.p("// singular static order, push triggering).")
	g.p("func (s *Sim) Step(n int) error {")
	g.p("  for i := 0; i < n; i++ {")
	g.p("    if s.stopErr != nil { return s.stopErr }")
	// Inputs only change through pokes, so the scan runs only on steps
	// following one (poked also covers Reset) — same gating as the
	// interpreter's scanInputs.
	g.p("    if s.poked { s.poked = false; s.detectInputs() }")
	if g.opts.Serve {
		g.p("    s.stats[%d] += %d", statPartChecks, len(plan.Parts))
	}
	for pi := range plan.Parts {
		if plan.Parts[pi].AlwaysOn {
			g.p("    s.p%d()", pi)
		} else {
			g.p("    if s.flags[%d] { s.flags[%d] = false; s.p%d() }", pi, pi, pi)
		}
	}
	g.p("    err := s.evalErr")
	g.p("    s.evalErr = nil")
	g.p("    s.commit()")
	g.p("    s.cycle++")
	if g.opts.Serve {
		g.p("    s.stats[%d]++", statCycles)
	}
	g.p("    if err != nil { s.stopErr = err; return err }")
	g.p("  }")
	g.p("  return nil")
	g.p("}")
	g.p("")

	// Input change detection.
	g.fn("(s *Sim) detectInputs()", func() {
		if g.opts.Serve && len(d.Inputs) > 0 {
			g.p("  s.stats[%d] += %d", statInputChecks, len(d.Inputs))
		}
		prevOff := int32(0)
		for i, in := range d.Inputs {
			words := int32(bits.Words(d.Signals[in].Width))
			off := pr.Off[in]
			if words == 1 {
				g.p("  if %s != s.prevIn[%d] {", g.tw(off), prevOff)
				g.p("    s.prevIn[%d] = %s", prevOff, g.tw(off))
			} else {
				g.p("  if !simrt.EqualWords(%s, s.prevIn[%d:%d]) {",
					g.span(off, words), prevOff, prevOff+words)
				g.p("    copy(s.prevIn[%d:%d], %s)", prevOff, prevOff+words, g.span(off, words))
			}
			for _, p := range plan.InputConsumers[i] {
				g.p("    s.flags[%d] = true", p)
			}
			if g.opts.Serve && len(plan.InputConsumers[i]) > 0 {
				g.p("    s.stats[%d] += %d", statWakes, len(plan.InputConsumers[i]))
			}
			g.p("  }")
			prevOff += words
		}
	})

	// Partition functions.
	for pi := range plan.Parts {
		g.fn(fmt.Sprintf("(s *Sim) p%d()", pi), func() { g.emitPartBody(pi) })
	}
}

// emitPartBody emits one partition function's body: save the outputs'
// old values, evaluate members in schedule order, then compare outputs
// and wake their consumers.
func (g *gen) emitPartBody(pi int) {
	pr := g.prog
	d := pr.D
	part := &pr.Plan.Parts[pi]
	if g.opts.Serve {
		g.p("  s.stats[%d]++", statPartEvals)
	}
	// Save old outputs.
	var narrowOlds []string
	var wideOlds []string
	for oi, o := range part.Outputs {
		w := d.Signals[o.Sig].Width
		off := pr.Off[o.Sig]
		if w <= 64 {
			name := fmt.Sprintf("o%d", oi)
			g.p("  %s := %s", name, g.tw(off))
			narrowOlds = append(narrowOlds, name)
			wideOlds = append(wideOlds, "")
		} else {
			words := int32(bits.Words(w))
			g.p("  copy(s.old[%d:%d], %s)", g.oldOff, g.oldOff+words, g.span(off, words))
			narrowOlds = append(narrowOlds, "")
			wideOlds = append(wideOlds, fmt.Sprintf("s.old[%d:%d]", g.oldOff, g.oldOff+words))
			g.oldOff += words
		}
	}
	// Entries in schedule order.
	for _, node := range part.Members {
		pos := pr.SchedPosOf[node]
		if pos < 0 {
			continue
		}
		g.emitEntry(pr.Sched[pos])
	}
	g.flushOps()
	// Change detection + wakes.
	for oi, o := range part.Outputs {
		w := d.Signals[o.Sig].Width
		off := pr.Off[o.Sig]
		if g.opts.Serve {
			g.p("  s.stats[%d]++", statOutputCompares)
		}
		if w <= 64 {
			g.p("  if %s != %s {", g.tw(off), narrowOlds[oi])
		} else {
			words := int32(bits.Words(w))
			g.p("  if !simrt.EqualWords(%s, %s) {", g.span(off, words), wideOlds[oi])
		}
		if g.opts.Serve {
			g.p("    s.stats[%d]++", statSignalChanges)
		}
		for _, q := range o.Consumers {
			g.p("    s.flags[%d] = true", q)
		}
		if g.opts.Serve && len(o.Consumers) > 0 {
			g.p("    s.stats[%d] += %d", statWakes, len(o.Consumers))
		}
		g.p("  }")
	}
	if len(part.Regs) > 0 {
		g.p("  s.pd[%d] = true", pi)
	}
}
