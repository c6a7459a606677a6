package sim

import "essent/internal/bits"

// rec is one lowered schedule position: the record runRange executes.
// The schedule (schedEntry + instrs) stays the build-time form every pass
// and the verifier reason about; after fusion each position is lowered to
// exactly one rec, so recs[p] runs what sched[p] describes and the per-op
// loop reads a single 32-byte array instead of chasing an index into the
// larger instr table. Narrow unsigned instructions carry everything they
// need inline; signed, wide and fused instructions keep their instr-table
// slow path.
//
// Field use by opcode:
//
//	narrow ICode  a, b, c operand offsets; dst result offset; mask result
//	              mask (IAndr: the all-ones compare value of the operand
//	              width); sh static shift (IShl/IShr p0, ICat bw, IBits
//	              p1, IHead aw-p0, clamped to 64); IMemRead: b is the
//	              memory index
//	rSigned/rWide/rFused  a is the instr index, dst its result offset
//	rDisplay/rCheck/rMemWrite  a is the sink index
//	rNop          no evaluation (plain skip guards)
//
// A nonzero skip makes the position a guard: after the evaluation, t[dst]
// decides whether the next n positions are skipped (dst is the selector
// offset for a plain guard, the instruction's result for a fused one).
type rec struct {
	mask    uint64
	a, b, c int32
	dst     int32
	n       int32
	op      ICode
	sh      uint8
	skip    uint8
	ops     uint8 // OpsEvaluated weight: 0 sinks and guards, 2 fused
}

// Record-only opcodes, numbered after the instr codes so the runRange
// switch stays one dense jump table.
const (
	rNop ICode = IFSubTail + 1 + iota
	rSigned
	rWide
	rFused
	rDisplay
	rCheck
	rMemWrite
)

// Skip senses of a guard record.
const (
	skNone uint8 = iota
	skIfZero
	skIfNonzero
)

// lowerSchedule lowers every schedule position to its record.
func (m *machine) lowerSchedule() {
	m.recs = make([]rec, len(m.sched))
	for p := range m.sched {
		m.recs[p] = m.lowerEntry(m.sched[p])
	}
}

// lowerEntry derives the record for one schedule entry. It is the single
// definition of the lowering: the SM-LOWER verifier rule re-derives every
// record through it and compares. Malformed entries (reported by SM-SKIP)
// lower to a no-op.
func (m *machine) lowerEntry(e schedEntry) rec {
	switch e.kind {
	case seInstr, seSkipIfZeroF, seSkipIfNonzeroF:
		if e.idx < 0 || int(e.idx) >= len(m.instrs) {
			return rec{op: rNop}
		}
		r := lowerInstr(&m.instrs[e.idx], e.idx)
		switch e.kind {
		case seSkipIfZeroF:
			r.skip, r.n = skIfZero, e.n
		case seSkipIfNonzeroF:
			r.skip, r.n = skIfNonzero, e.n
		}
		return r
	case seSkipIfZero:
		return rec{op: rNop, dst: e.idx, skip: skIfZero, n: e.n}
	case seSkipIfNonzero:
		return rec{op: rNop, dst: e.idx, skip: skIfNonzero, n: e.n}
	case seDisplay:
		return rec{op: rDisplay, a: e.idx}
	case seCheck:
		return rec{op: rCheck, a: e.idx}
	case seMemWrite:
		return rec{op: rMemWrite, a: e.idx}
	}
	return rec{op: rNop}
}

// lowerInstr derives the record evaluating instruction idx.
func lowerInstr(in *instr, idx int32) rec {
	switch in.kind {
	case kSigned:
		return rec{op: rSigned, a: idx, dst: in.dst, ops: 1}
	case kWide:
		return rec{op: rWide, a: idx, dst: in.dst, ops: 1}
	case kFused:
		return rec{op: rFused, a: idx, dst: in.dst, ops: 2}
	}
	r := rec{op: in.code, a: in.a, b: in.b, c: in.c, dst: in.dst,
		mask: in.dmask, ops: 1}
	switch in.code {
	case IShl, IShr:
		r.sh = shiftAmt(in.p0)
	case ICat:
		r.sh = shiftAmt(in.bw)
	case IBits:
		r.sh = shiftAmt(in.p1)
	case IHead:
		r.sh = shiftAmt(in.aw - in.p0)
	case IAndr:
		r.mask = bits.Mask64(^uint64(0), int(in.aw))
	case IMemRead:
		r.b = in.mem
	}
	return r
}

// shiftAmt narrows a static shift amount to a byte. Every amount of 64 or
// more shifts a word to zero, so clamping keeps the result exact.
func shiftAmt(n int32) uint8 {
	if n < 0 || n > 64 {
		return 64
	}
	return uint8(n)
}
