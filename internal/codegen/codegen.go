// Package codegen emits standalone Go simulators from compiled designs —
// the analogue of ESSENT generating C++ (§III-A). Two modes are
// supported: full-cycle (the baseline schedule) and CCSS (partition
// functions guarded by activity flags with push triggering). The emitted
// code replays the interpreter's exact instruction stream, so behavior
// matches the engines by construction; cold paths (printf bodies,
// assertion handling) are segregated into noinline functions, the Go
// equivalent of the paper's branch-hint code-layout optimization
// (§III-B2).
package codegen

import (
	"fmt"
	"go/format"
	"strings"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/sched"
	"essent/internal/sim"
)

// FormatVersion identifies the generator's output format. Bump it with
// any change to the emitted code for an unchanged design and options:
// the serving backend's artifact cache key includes it, so a bump
// retires every artifact an older generator built.
//
// 2: fixed-size value table kept in a function-local pointer, no
// self-copy stores, mux shadows taken from the plan.
const FormatVersion = 2

// Mode selects the generated simulator's execution strategy.
type Mode int

// Generation modes.
const (
	// ModeFullCycle emits a baseline full-cycle simulator.
	ModeFullCycle Mode = iota
	// ModeCCSS emits the conditional/coarsened/singular/static simulator.
	ModeCCSS
)

// Options configures generation.
type Options struct {
	// Package is the emitted package name.
	Package string
	// Mode selects full-cycle or CCSS.
	Mode Mode
	// Cp is the CCSS partitioning threshold (0 = default 8).
	Cp int
	// Elide enables register update elision in full-cycle mode
	// (always on for CCSS).
	Elide bool
	// NoMuxShadow disables folding single-use cones into multiplexer
	// arms (§III-B's "conditionally evaluating multiplexor ways"); the
	// optimization is on by default.
	NoMuxShadow bool
	// NoElide disables in-partition register updates in CCSS mode
	// (ablation knob).
	NoElide bool
	// NoPack disables boolean-expression fusion (the generated-code form
	// of the batch engine's bit-packing pass: single-use 1-bit producers
	// inline into their consumers; ablation knob).
	NoPack bool
	// Serve emits the serving-backend surface: design fingerprint
	// constants, ckptio snapshot Capture/Restore, the architectural
	// StateHash, flat Stats counters mirroring the interpreter's
	// activity accounting, and a signal table covering every named
	// signal — everything pipeproto.Child requires. Off by default so
	// bench-only output stays lean.
	Serve bool
}

// Generate emits Go source for a simulator of the design.
func Generate(d *netlist.Design, opts Options) ([]byte, error) {
	if opts.Package == "" {
		opts.Package = "gensim"
	}
	var prog *sim.GenProgram
	var err error
	switch opts.Mode {
	case ModeFullCycle:
		prog, err = sim.ExportFullCycle(d, opts.Elide)
	case ModeCCSS:
		prog, err = sim.ExportCCSSOpts(d, sched.PlanOptions{
			Cp: opts.Cp, NoElide: opts.NoElide, NoMuxShadow: opts.NoMuxShadow,
		})
	default:
		return nil, fmt.Errorf("codegen: unknown mode %d", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	g := &gen{prog: prog, opts: opts, b: &strings.Builder{}, inlineExpr: map[int32]string{}}
	if !opts.NoMuxShadow {
		// The plan's own arm analysis, exactly as the interpreter engines
		// consume it (nil for an unoptimized full-cycle plan).
		g.shadows = prog.Shadows
	}
	if !opts.NoPack {
		g.computeInlineFusion()
	}
	src := g.emit()
	out, err := format.Source([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("codegen: emitted source does not format: %w\n%s", err, src)
	}
	return out, nil
}

type gen struct {
	prog *sim.GenProgram
	opts Options
	b    *strings.Builder
	// usesT records that the function body being emitted references the
	// value table, so fn declares the `t := s.t` local.
	usesT bool
	// cold collects noinline cold-path function bodies.
	cold []string
	// oldOff assigns wide old-value buffer offsets (CCSS).
	oldOff int32
	// shadows holds the mux-arm cones (nil when disabled).
	shadows *sched.MuxShadows
	// inlineExpr maps fused-away 1-bit producer offsets to the rendered
	// expression substituted at their single reader; inlinedCount is the
	// pass statistic (see pack.go).
	inlineExpr   map[int32]string
	inlinedCount int
	// pendOps accumulates instruction counts between control-flow
	// boundaries; flushOps emits them as one stats increment (Serve
	// mode's OpsEvaluated accounting).
	pendOps int
}

// countOp records one evaluated instruction for the Serve-mode
// OpsEvaluated counter.
func (g *gen) countOp() {
	if g.opts.Serve {
		g.pendOps++
	}
}

// flushOps emits the pending instruction count. Must be called before
// emitting a branch that conditionally skips instructions, and at the
// end of every straight-line function body.
func (g *gen) flushOps() {
	if g.pendOps > 0 {
		g.p("s.stats[%d] += %d", statOps, g.pendOps)
		g.pendOps = 0
	}
}

// Flat stats indices, matching sim.Stats field order (the checkpoint
// format's append-only stats word list).
const (
	statCycles         = 0
	statOps            = 1
	statSignalChanges  = 2
	statPartChecks     = 3
	statInputChecks    = 4
	statPartEvals      = 5
	statOutputCompares = 6
	statWakes          = 7
	statFusedPairs     = 9
)

func (g *gen) p(format string, args ...any) {
	fmt.Fprintf(g.b, format, args...)
	g.b.WriteByte('\n')
}

// fn emits `func <sig> {` + body + `}`. A body that touches the value
// table opens with `t := s.t`: the array pointer lives in a register,
// so each constant-index access is one load or store, with no reload
// of s.t after a store and no bounds check. Bodies that never touch
// the table declare nothing (Go rejects unused locals).
func (g *gen) fn(sig string, body func()) {
	outer := g.b
	g.b = &strings.Builder{}
	g.usesT = false
	body()
	inner := g.b.String()
	g.b = outer
	g.p("func %s {", sig)
	if g.usesT {
		g.p("  t := s.t")
	}
	g.b.WriteString(inner)
	g.p("}")
	g.p("")
}

// tw renders table word off through the function-local array pointer.
func (g *gen) tw(off int32) string {
	g.usesT = true
	return fmt.Sprintf("t[%d]", off)
}

// span renders the table words [off, off+n) as a slice.
func (g *gen) span(off, n int32) string {
	g.usesT = true
	return fmt.Sprintf("t[%d:%d]", off, off+n)
}

// view renders a wide operand of width w bits as a table slice.
func (g *gen) view(off, w int32) string {
	return g.span(off, int32(bits.Words(int(w))))
}

func (g *gen) emit() string {
	d := g.prog.D
	g.p("// Code generated by essentgen from design %q. DO NOT EDIT.", d.Name)
	g.p("")
	g.p("// Package %s is a generated cycle-accurate simulator.", g.opts.Package)
	if g.inlinedCount > 0 {
		g.p("// packfuse: %d single-use 1-bit expressions inlined into their consumers.",
			g.inlinedCount)
	}
	g.p("package %s", g.opts.Package)
	g.p("")
	g.p(`import (`)
	g.p(`  "fmt"`)
	g.p(`  "io"`)
	g.p("")
	if g.opts.Serve {
		g.p(`  "essent/pkg/ckptio"`)
	}
	g.p(`  "essent/pkg/simrt"`)
	g.p(`)`)
	g.p("")
	g.emitErrors()
	g.emitStruct()
	g.emitNew()
	g.emitAccessors()
	if g.opts.Serve {
		g.emitServe()
	}
	if g.opts.Mode == ModeCCSS {
		g.emitCCSSStep()
	} else {
		g.emitFullCycleStep()
	}
	g.fn("(s *Sim) commit()", g.emitCommit)
	for _, c := range g.cold {
		g.b.WriteString(c)
		g.b.WriteByte('\n')
	}
	return g.b.String()
}

func (g *gen) emitErrors() {
	g.p(`// StopError reports a stop() with its exit code.
type StopError struct {
	Code  int
	Cycle uint64
}

func (e *StopError) Error() string {
	return fmt.Sprintf("stop(%%d) at cycle %%d", e.Code, e.Cycle)
}

// AssertError reports a failed assertion.
type AssertError struct {
	Msg   string
	Cycle uint64
}

func (e *AssertError) Error() string {
	return fmt.Sprintf("assertion failed at cycle %%d: %%s", e.Cycle, e.Msg)
}

// StopInfo classifies this error over the serve protocol.
func (e *StopError) StopInfo() (int, uint64) { return e.Code, e.Cycle }

// AssertInfo classifies this error over the serve protocol.
func (e *AssertError) AssertInfo() (string, uint64) { return e.Msg, e.Cycle }`)
	g.p("")
}

func (g *gen) emitStruct() {
	pr := g.prog
	g.p("// Sim is the generated simulator state.")
	g.p("type Sim struct {")
	g.p("  t *[%d]uint64", pr.TableLen)
	g.p("  mems [][]uint64")
	g.p("  sc *simrt.Scratch")
	g.p("  Out io.Writer")
	g.p("  cycle uint64")
	g.p("  stopErr error")
	g.p("  evalErr error")
	if len(pr.MemWrites) > 0 {
		g.p("  pendValid []bool")
		g.p("  pendAddr []uint64")
		g.p("  pendData [][]uint64")
	}
	if g.opts.Mode == ModeCCSS {
		// Fixed-size like the table: constant-index flag tests and
		// wakes compile without bounds checks.
		np := len(pr.Plan.Parts)
		g.p("  flags *[%d]bool", np)
		g.p("  pd *[%d]bool", np)
		g.p("  prevIn []uint64")
		g.p("  old []uint64")
		g.p("  poked bool")
	}
	if g.opts.Serve {
		g.p("  stats [11]uint64")
	}
	g.p("}")
	g.p("")
}

func (g *gen) emitNew() {
	pr := g.prog
	d := pr.D
	g.p("// New builds a simulator with registers at their reset values.")
	g.p("func New() *Sim {")
	g.p("  s := &Sim{t: new([%d]uint64), sc: simrt.NewScratch(%d), Out: io.Discard}",
		pr.TableLen, pr.MaxWords)
	g.p("  s.mems = make([][]uint64, %d)", len(d.Mems))
	for mi := range d.Mems {
		m := &d.Mems[mi]
		g.p("  s.mems[%d] = make([]uint64, %d)", mi, bits.Words(m.Width)*m.Depth)
	}
	if len(pr.MemWrites) > 0 {
		g.p("  s.pendValid = make([]bool, %d)", len(pr.MemWrites))
		g.p("  s.pendAddr = make([]uint64, %d)", len(pr.MemWrites))
		g.p("  s.pendData = make([][]uint64, %d)", len(pr.MemWrites))
		for i := range pr.MemWrites {
			g.p("  s.pendData[%d] = make([]uint64, %d)", i,
				bits.Words(int(pr.MemWrites[i].Data.W)))
		}
	}
	if g.opts.Mode == ModeCCSS {
		np := len(pr.Plan.Parts)
		g.p("  s.flags = new([%d]bool)", np)
		g.p("  s.pd = new([%d]bool)", np)
		g.p("  s.prevIn = make([]uint64, %d)", g.prevInWords())
		g.p("  s.old = make([]uint64, %d)", g.oldWords())
	}
	g.p("  s.Reset()")
	g.p("  return s")
	g.p("}")
	g.p("")
	g.p("// Reset restores initial state (registers to reset values, memories")
	g.p("// zeroed, constants re-materialized).")
	g.fn("(s *Sim) Reset()", func() {
		g.p("  clear(s.t[:])")
		g.p("  for _, m := range s.mems { clear(m) }")
		offs, vals := pr.ConstWords()
		for i := range offs {
			g.p("  %s = %#x", g.tw(offs[i]), vals[i])
		}
		for ri := range d.Regs {
			r := &d.Regs[ri]
			off := pr.Off[r.Out]
			for w, v := range r.Init {
				if v != 0 {
					g.p("  %s = %#x // %s init", g.tw(off+int32(w)), v, r.Name)
				}
			}
		}
		if g.opts.Mode == ModeCCSS {
			g.p("  for i := range s.flags { s.flags[i] = true }")
			g.p("  for i := range s.pd { s.pd[i] = false }")
			g.p("  for i := range s.prevIn { s.prevIn[i] = ^uint64(0) }")
			g.p("  s.poked = true")
		}
		if g.opts.Serve {
			g.p("  for i := range s.stats { s.stats[i] = 0 }")
		}
		if len(pr.MemWrites) > 0 {
			g.p("  for i := range s.pendValid { s.pendValid[i] = false }")
		}
		g.p("  s.stopErr = nil")
		g.p("  s.evalErr = nil")
		g.p("  s.cycle = 0")
	})
}

func (g *gen) prevInWords() int32 {
	var n int32
	for _, in := range g.prog.D.Inputs {
		n += int32(bits.Words(g.prog.D.Signals[in].Width))
	}
	return n
}

// oldWords sizes the wide old-value buffer: one region per wide partition
// output (narrow outputs use locals).
func (g *gen) oldWords() int32 {
	var n int32
	for _, p := range g.prog.Plan.Parts {
		for _, o := range p.Outputs {
			if w := g.prog.D.Signals[o.Sig].Width; w > 64 {
				n += int32(bits.Words(w))
			}
		}
	}
	return n
}

func (g *gen) emitAccessors() {
	pr := g.prog
	d := pr.D
	seen := map[string]bool{}
	emitSig := func(id netlist.SignalID) {
		s := &d.Signals[id]
		if s.Name == "" || seen[s.Name] {
			return
		}
		seen[s.Name] = true
		g.p("  %q: {%d, %d, %d},", s.Name, pr.Off[id], s.Width, bits.Words(s.Width))
	}
	if g.opts.Serve {
		// The serving backend peeks arbitrary named signals (the host's
		// Simulator.Peek contract), so the table covers everything with
		// a name, ports and registers first so they win name collisions.
		g.p("// signalInfo maps every named signal to {offset, width, words}.")
		g.p("var signalInfo = map[string][3]int{")
		for _, in := range d.Inputs {
			emitSig(in)
		}
		for _, o := range d.Outputs {
			emitSig(o)
		}
		for ri := range d.Regs {
			emitSig(d.Regs[ri].Out)
		}
		for id := range d.Signals {
			emitSig(netlist.SignalID(id))
		}
	} else {
		g.p("// signalInfo maps port and register names to {offset, width, words}.")
		g.p("var signalInfo = map[string][3]int{")
		for _, in := range d.Inputs {
			emitSig(in)
		}
		for _, o := range d.Outputs {
			emitSig(o)
		}
		for ri := range d.Regs {
			emitSig(d.Regs[ri].Out)
		}
	}
	g.p("}")
	g.p("")
	g.p("var memInfo = map[string]int{")
	for mi := range d.Mems {
		g.p("  %q: %d,", d.Mems[mi].Name, mi)
	}
	g.p("}")
	g.p("")
	poked := ""
	if g.opts.Mode == ModeCCSS {
		poked = "\n\ts.poked = true"
	}
	g.p(`// Poke sets a port or register by name (low 64 bits).
func (s *Sim) Poke(name string, v uint64) bool {
	info, ok := signalInfo[name]
	if !ok {
		return false
	}
	s.t[info[0]] = v & mask64c(info[1])
	for w := 1; w < info[2]; w++ {
		s.t[info[0]+w] = 0
	}` + poked + `
	return true
}

// PokeWords sets a signal from limb words (wide pokes).
func (s *Sim) PokeWords(name string, v []uint64) bool {
	info, ok := signalInfo[name]
	if !ok {
		return false
	}
	for w := 0; w < info[2]; w++ {
		var x uint64
		if w < len(v) {
			x = v[w]
		}
		if (w+1)*64 > info[1] {
			x &= mask64c(info[1] - w*64)
		}
		s.t[info[0]+w] = x
	}` + poked + `
	return true
}

// Peek reads a port or register by name (low 64 bits).
func (s *Sim) Peek(name string) uint64 {
	info, ok := signalInfo[name]
	if !ok {
		return 0
	}
	return s.t[info[0]]
}

// PeekWords reads a signal's words by name.
func (s *Sim) PeekWords(name string) ([]uint64, bool) {
	info, ok := signalInfo[name]
	if !ok {
		return nil, false
	}
	return append([]uint64(nil), s.t[info[0]:info[0]+info[2]]...), true
}

// SetOutput redirects printf output (nil restores the default sink).
func (s *Sim) SetOutput(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	s.Out = w
}

func mask64c(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

// PeekMem reads a memory word by memory name.
func (s *Sim) PeekMem(name string, addr int) uint64 {
	mi, ok := memInfo[name]
	if !ok {
		return 0
	}
	m := s.mems[mi]
	w := memWords[mi]
	if addr < 0 || addr*w >= len(m) {
		return 0
	}
	return m[addr*w]
}

// Cycles returns the simulated cycle count.
func (s *Sim) Cycles() uint64 { return s.cycle }`)
	g.p("")
	g.p("var memWords = []int{")
	for mi := range d.Mems {
		g.p("  %d,", bits.Words(d.Mems[mi].Width))
	}
	g.p("}")
	g.p("")
	// PokeMem, with CCSS read-partition wakes.
	g.p("// PokeMem writes a memory word by name (program loading).")
	g.p("func (s *Sim) PokeMem(name string, addr int, v uint64) bool {")
	g.p("  mi, ok := memInfo[name]")
	g.p("  if !ok { return false }")
	g.p("  m := s.mems[mi]")
	g.p("  w := memWords[mi]")
	g.p("  if addr < 0 || addr*w >= len(m) { return false }")
	g.p("  m[addr*w] = v")
	g.p("  for k := 1; k < w; k++ { m[addr*w+k] = 0 }")
	if g.opts.Mode == ModeCCSS {
		g.p("  for _, p := range memWake[mi] { s.flags[p] = true }")
		g.p("  s.poked = true")
	}
	g.p("  return true")
	g.p("}")
	g.p("")
	if g.opts.Mode == ModeCCSS {
		g.p("var memWake = [][]int{")
		for mi := range d.Mems {
			g.p("  %s,", intSliceLit(g.prog.Plan.MemReaderParts[mi]))
		}
		g.p("}")
		g.p("")
	}
}

func intSliceLit(xs []int) string {
	if len(xs) == 0 {
		return "nil"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
