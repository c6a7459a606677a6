package sim

import (
	"essent/internal/netlist"
	"essent/internal/sched"
)

// GenProgram is an exported view of a compiled machine for the code
// generator: the same value-table layout, instruction stream, and
// schedule the interpreter executes, so emitted code is semantically
// identical by construction.
type GenProgram struct {
	D        *netlist.Design
	Off      []int32
	NW       []int32
	ConstOff []int32
	TableLen int
	MaxWords int

	Instrs     []GenInstr
	Sched      []GenSched
	SchedPosOf []int32
	// InstrOf maps SignalID → index into Instrs (-1 for non-comb).
	InstrOf []int32
	RegCopy []int
	Elided  []bool

	MemWrites []GenMemWrite
	Displays  []GenDisplay
	Checks    []GenCheck

	// Plan is non-nil for CCSS programs.
	Plan *sched.CCSSPlan
	// Shadows is the plan's mux-arm cone analysis — the same result the
	// interpreter engines consume — or nil when the plan computed none
	// (unoptimized full-cycle, NoMuxShadow).
	Shadows *sched.MuxShadows
}

// GenInstr mirrors one compiled instruction.
type GenInstr struct {
	Code           ICode
	Wide           bool
	SA, SB, SC     bool
	A, B, C, Dst   int32
	AW, BW, CW, DW int32
	P0, P1         int32
	Mem            int32
	Out            netlist.SignalID
}

// GenSched mirrors one schedule entry.
type GenSched struct {
	Kind uint8
	Idx  int32
}

// Schedule entry kinds (exported mirrors).
const (
	GenInstrEntry    = seInstr
	GenDisplayEntry  = seDisplay
	GenCheckEntry    = seCheck
	GenMemWriteEntry = seMemWrite
)

// GenOperand is a resolved operand reference.
type GenOperand struct {
	Off    int32
	W      int32
	Signed bool
}

// GenMemWrite mirrors a compiled write port.
type GenMemWrite struct {
	Mem                  int32
	Addr, En, Data, Mask GenOperand
}

// GenDisplay mirrors a compiled printf.
type GenDisplay struct {
	En     GenOperand
	Format string
	Args   []GenOperand
}

// GenCheck mirrors a compiled assert/stop.
type GenCheck struct {
	En, Pred GenOperand
	Msg      string
	Stop     bool
	Code     int
}

func exportOperand(o operand) GenOperand {
	return GenOperand{Off: o.off, W: o.w, Signed: o.signed}
}

func exportMachine(m *machine, plan *sched.CCSSPlan, shadows *sched.MuxShadows) *GenProgram {
	g := &GenProgram{
		D: m.d, Off: m.off, NW: m.nw, ConstOff: m.constOff,
		TableLen: len(m.t), RegCopy: m.regCopy, Elided: m.elided,
		SchedPosOf: m.schedPosOf, InstrOf: m.instrOf, Plan: plan,
		Shadows: shadows,
	}
	maxW := 1
	for _, n := range m.nw {
		if int(n) > maxW {
			maxW = int(n)
		}
	}
	g.MaxWords = maxW
	for _, in := range m.instrs {
		g.Instrs = append(g.Instrs, GenInstr{
			Code: in.code, Wide: in.wide, SA: in.sa, SB: in.sb, SC: in.sc,
			A: in.a, B: in.b, C: in.c, Dst: in.dst,
			AW: in.aw, BW: in.bw, CW: in.cw, DW: in.dw,
			P0: in.p0, P1: in.p1, Mem: in.mem, Out: in.out,
		})
	}
	for _, e := range m.sched {
		g.Sched = append(g.Sched, GenSched{Kind: e.kind, Idx: e.idx})
	}
	for i := range m.memWrites {
		w := &m.memWrites[i]
		g.MemWrites = append(g.MemWrites, GenMemWrite{
			Mem:  w.mem,
			Addr: exportOperand(w.addr), En: exportOperand(w.en),
			Data: exportOperand(w.data), Mask: exportOperand(w.mask),
		})
	}
	for i := range m.displays {
		d := &m.displays[i]
		gd := GenDisplay{En: exportOperand(d.en), Format: d.format}
		for _, a := range d.args {
			gd.Args = append(gd.Args, exportOperand(a))
		}
		g.Displays = append(g.Displays, gd)
	}
	for i := range m.checks {
		c := &m.checks[i]
		g.Checks = append(g.Checks, GenCheck{
			En: exportOperand(c.en), Pred: exportOperand(c.pred),
			Msg: c.msg, Stop: c.stop, Code: c.code,
		})
	}
	return g
}

// ExportFullCycle compiles a full-cycle program view (the generator's
// baseline and optimized full-cycle modes).
func ExportFullCycle(d *netlist.Design, elide bool) (*GenProgram, error) {
	plan, err := sched.Build(d, elide)
	if err != nil {
		return nil, err
	}
	m, err := newMachine(d, plan.DG, plan.Order, plan.Elided)
	if err != nil {
		return nil, err
	}
	return exportMachine(m, nil, plan.Shadows), nil
}

// ExportCCSS compiles a CCSS program view with partition metadata.
func ExportCCSS(d *netlist.Design, cp int) (*GenProgram, error) {
	return ExportCCSSOpts(d, sched.PlanOptions{Cp: cp})
}

// ExportCCSSOpts is ExportCCSS with explicit optimization knobs. The
// generator applies mux shadowing itself, so the plan's shadow analysis
// is carried in Shadows, not lowered into the schedule.
func ExportCCSSOpts(d *netlist.Design, opts sched.PlanOptions) (*GenProgram, error) {
	plan, err := sched.PlanCCSSOpts(d, opts)
	if err != nil {
		return nil, err
	}
	m, err := newMachine(d, plan.DG, plan.Order, plan.Elided)
	if err != nil {
		return nil, err
	}
	return exportMachine(m, plan, plan.Shadows), nil
}

// ConstWords exposes the materialized constant-pool initialization values
// (offset/value pairs) for generated code.
func (g *GenProgram) ConstWords() (offs []int32, vals []uint64) {
	for i := range g.D.Consts {
		c := &g.D.Consts[i]
		for w, v := range c.Words {
			if v != 0 {
				offs = append(offs, g.ConstOff[i]+int32(w))
				vals = append(vals, v)
			}
		}
	}
	return offs, vals
}
