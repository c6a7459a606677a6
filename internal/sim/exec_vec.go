package sim

import (
	"essent/pkg/simrt"
)

// execGroup runs one class program over the group's slot-major row
// buffer for the given active lanes, mirroring the batch engine's
// mask-stack divergence handling (exec_batch.go runRange): a skip whose
// cone covers no active lane jumps, a partial cone pushes the outer
// mask and narrows, and the frame pops at the region end. A skip on a
// uniform selector decides its cone from one word; with every lane
// active, selector scans walk the row directly. Returns the op count
// (scalar runRange units: active lanes × weight, fused ops weigh 2) for
// Stats.OpsEvaluated.
//
// Safe to call concurrently for disjoint lane sets of the same group:
// every written buffer cell is indexed by an active lane, and the
// divergence scratch lives on this call's stack.
func execGroup(g *vecGroup, mask simrt.LaneMask, lanes []int) uint64 {
	L := g.lanes
	buf := g.buf
	prog := g.prog
	vin := g.vinstrs
	var ops uint64

	type frame struct {
		end  int32
		mask simrt.LaneMask
	}
	var stackArr [8]frame
	stack := stackArr[:0]
	var lanesArr [simrt.MaxLanes]int
	setMask := func(m simrt.LaneMask) {
		mask = m
		if m == g.full {
			lanes = g.allLanes
		} else {
			lanes = m.Lanes(lanesArr[:0])
		}
	}

	end := int32(len(prog))
	for i := int32(0); i < end; {
		for len(stack) > 0 && stack[len(stack)-1].end == i {
			setMask(stack[len(stack)-1].mask)
			stack = stack[:len(stack)-1]
		}
		e := &prog[i]
		if e.kind == seInstr {
			ops += g.exec(&vin[e.idx], lanes)
			i++
			continue
		}
		var nz simrt.LaneMask
		skipZero := false
		sel := e.idx
		switch e.kind {
		case seSkipIfZero, seSkipIfNonzero:
			skipZero = e.kind == seSkipIfZero
		case seSkipIfZeroF, seSkipIfNonzeroF:
			in := &vin[e.idx]
			ops += g.exec(in, lanes)
			sel = in.dst
			skipZero = e.kind == seSkipIfZeroF
		}
		selRow := buf[int(sel)*L : int(sel)*L+L]
		switch {
		case g.uniform[sel]:
			if selRow[0] != 0 {
				nz = mask
			}
		case mask == g.full:
			for l, x := range selRow {
				nz |= simrt.LaneMask(b2u(x != 0)) << uint(l)
			}
		default:
			for _, l := range lanes {
				nz |= simrt.LaneMask(b2u(selRow[l] != 0)) << uint(l)
			}
		}
		cone := mask & nz
		if !skipZero {
			cone = mask &^ nz
		}
		if cone == 0 {
			i += 1 + e.n
			continue
		}
		if cone != mask {
			stack = append(stack, frame{end: i + 1 + e.n, mask: mask})
			setMask(cone)
		}
		i++
	}
	return ops
}

// row returns slot s's lane row (nil for an unused operand).
func (g *vecGroup) row(s int32) []uint64 {
	if s < 0 {
		return nil
	}
	return g.buf[int(s)*g.lanes : int(s)*g.lanes+g.lanes]
}

// exec runs one class instruction over the active lanes and returns its
// op count.
func (g *vecGroup) exec(in *instr, lanes []int) uint64 {
	if in.kind == kFused {
		var cc, mm []uint64
		if in.code == IFCmpMux {
			cc, mm = g.row(in.c), g.row(in.mem)
		}
		execRowFused(in, lanes, g.row(in.dst), g.row(in.a), g.row(in.b), cc, mm)
		return 2 * uint64(len(lanes))
	}
	execRowNarrow(in, lanes, g.row(in.dst), g.row(in.a), g.row(in.b), g.row(in.c))
	return uint64(len(lanes))
}
