package sim

import (
	stdbits "math/bits"

	"essent/internal/bits"
	"essent/internal/netlist"
	"essent/internal/partition"
	"essent/internal/sched"
	"essent/internal/verify"
)

// CCSSOptions configures the CCSS (ESSENT) engine.
type CCSSOptions struct {
	// Cp is the partitioning threshold (§IV); 0 selects the paper's
	// default of 8.
	Cp int
	// NoElide and NoMuxShadow disable individual §III-B optimizations
	// (ablation knobs; both default on).
	NoElide     bool
	NoMuxShadow bool
	// NoFuse disables superinstruction fusion (interpreter peephole
	// ablation knob; fusion defaults on and is bit-exact).
	NoFuse bool
	// PullTriggering replaces push-direction wakes with per-cycle input
	// comparisons (the §III-A direction ablation; expected slower).
	PullTriggering bool
	// Verify selects static-verification enforcement (netlist lint, plan
	// verification, machine-schedule checks). The zero value is strict:
	// construction fails on any proven violation.
	Verify verify.Mode
}

// CCSS is the paper's essential-signal-simulation engine: the design is
// acyclically partitioned, each partition guarded by an activity flag,
// triggering is push-directional on changed outputs, and state-element
// updates happen inside partitions when the elision analysis allows
// (§III). The schedule is static and singular: one pass over the
// partition list per cycle, each partition evaluated at most once.
type CCSS struct {
	*machine

	parts []ccssPart
	// flags holds one activity bit per partition; alwaysOn marks the
	// partitions the plan evaluates every cycle. The walk scans both a
	// word at a time (DESIGN.md §5).
	flags    flagSet
	alwaysOn flagSet

	// Input change detection (§III-A: "the simulator also detects changes
	// to external inputs").
	inputs []ccssInput
	prevIn []uint64

	// Per-register reader partitions (wake targets on state change).
	regReaderParts [][]int32
	// Per-memory reader-port partitions.
	memReaderParts [][]int32
	// regNext/regOut read register value storage at commit.
	regNext []operand
	regOut  []operand

	// dirtyRegs lists non-elided registers whose writer partition ran
	// this cycle (commit must compare-and-wake them).
	dirtyRegs []int32

	// poked is set by Poke/PokeWide/PokeMem and cleared by the per-cycle
	// input scan: inputs only ever change through pokes, so a step with
	// poked clear skips the external-input rescan entirely instead of
	// comparing every input word against its history.
	poked bool

	// oldVals buffers pre-evaluation output values for change detection.
	oldVals []uint64

	// PartStats from construction (for the experiment harness).
	PartStats partition.Stats
	// NumElided counts in-place-updated registers.
	NumElided int

	// plan is retained for engines layered on top (parallel evaluation).
	plan *sched.CCSSPlan

	// Pull-triggering state (nil when push, the default).
	pull     bool
	pullIns  [][]pullInput
	pullSnap []uint64
}

type ccssPart struct {
	schedStart, schedEnd int32
	outputs              []ccssOutput
	// regs lists non-elided register indices written by this partition.
	regs []int32
}

type ccssOutput struct {
	off    int32
	words  int32
	oldOff int32
	// consumers are partition indices to wake when this output changes
	// (the OR-reduction targets of Fig. 1).
	consumers []int32
}

// flagSet is a partition bitset: bit p%64 of word p/64 is partition p.
// Bits past the partition count stay clear, so a word scan never visits
// a partition that does not exist.
type flagSet []uint64

func newFlagSet(n int) flagSet { return make(flagSet, (n+63)/64) }

func (f flagSet) set(p int32)      { f[uint32(p)/64] |= 1 << (uint32(p) % 64) }
func (f flagSet) clear(p int32)    { f[uint32(p)/64] &^= 1 << (uint32(p) % 64) }
func (f flagSet) has(p int32) bool { return f[uint32(p)/64]>>(uint32(p)%64)&1 != 0 }

// setFirst sets bits [0, n).
func (f flagSet) setFirst(n int) {
	for i := range f {
		f[i] = 0
	}
	for w := 0; w < n/64; w++ {
		f[w] = ^uint64(0)
	}
	if n%64 != 0 {
		f[n/64] = 1<<(uint(n)%64) - 1
	}
}

// clearRange clears bits [lo, hi).
func (f flagSet) clearRange(lo, hi int32) {
	for w := lo / 64; w*64 < hi; w++ {
		f[w] &^= spanMask(w, lo, hi)
	}
}

// spanMask returns the bits of word w that fall in [lo, hi).
func spanMask(w, lo, hi int32) uint64 {
	base, m := w*64, ^uint64(0)
	if lo > base {
		m <<= uint(lo - base)
	}
	if hi < base+64 {
		m &= 1<<uint(hi-base) - 1
	}
	return m
}

// after returns the bits of word w above bit b: the unvisited rest of the
// word once partition 64*w+b has been evaluated.
func after(w uint64, b int) uint64 { return w &^ (2<<uint(b) - 1) }

type ccssInput struct {
	off       int32
	words     int32
	prevOff   int32
	consumers []int32
}

func toInt32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// NewCCSS compiles a CCSS simulator for the design.
func NewCCSS(d *netlist.Design, opts CCSSOptions) (*CCSS, error) {
	plan, err := sched.PlanCCSSOpts(d, sched.PlanOptions{
		Cp: opts.Cp, NoElide: opts.NoElide, NoMuxShadow: opts.NoMuxShadow,
	})
	if err != nil {
		return nil, err
	}
	c, err := newCCSSFromPlan(d, plan, opts.NoFuse, opts.Verify)
	if err != nil {
		return nil, err
	}
	if opts.PullTriggering {
		c.pull = true
		c.buildPull()
	}
	return c, nil
}

// newCCSSFromPlan builds the runtime structures from a computed plan,
// statically verifying the design, the plan, and the compiled machine
// schedule under vmode (the CCSS, parallel, and batch engines all build
// through here, so all three inherit the verification).
func newCCSSFromPlan(d *netlist.Design, plan *sched.CCSSPlan, noFuse bool,
	vmode verify.Mode) (*CCSS, error) {
	if vmode != verify.Off {
		diags := verify.DesignPrePlanned(d)
		diags = append(diags, verify.Plan(plan)...)
		if err := verify.Enforce(vmode, diags, nil); err != nil {
			return nil, err
		}
	}
	groups := make([][]int, len(plan.Parts))
	for pi := range plan.Parts {
		groups[pi] = plan.Parts[pi].Members
	}
	// Partition outputs are compared for change detection outside the
	// instruction stream; the fusion pass must keep their stores.
	var keepLive []netlist.SignalID
	for pi := range plan.Parts {
		for _, op := range plan.Parts[pi].Outputs {
			keepLive = append(keepLive, op.Sig)
		}
	}
	m, ranges, err := newMachineCfg(d, plan.DG, plan.Order, plan.Elided,
		machineConfig{shadows: plan.Shadows, groups: groups,
			fuse: !noFuse, keepLive: keepLive})
	if err != nil {
		return nil, err
	}
	if vmode != verify.Off {
		if err := verify.Enforce(vmode,
			verifyMachine(m, ranges, plan, keepLive), nil); err != nil {
			return nil, err
		}
	}
	c := &CCSS{machine: m, PartStats: plan.PartStats, NumElided: plan.NumElided,
		plan: plan}

	// Partition runtime structures: entry ranges come straight from the
	// grouped schedule construction.
	np := len(plan.Parts)
	c.parts = make([]ccssPart, np)
	c.flags = newFlagSet(np)
	c.alwaysOn = newFlagSet(np)
	oldOff := int32(0)
	for p := 0; p < np; p++ {
		pp := &plan.Parts[p]
		part := ccssPart{schedStart: ranges[p][0], schedEnd: ranges[p][1],
			regs: toInt32s(pp.Regs)}
		if pp.AlwaysOn {
			c.alwaysOn.set(int32(p))
		}
		for _, op := range pp.Outputs {
			words := int32(bits.Words(d.Signals[op.Sig].Width))
			part.outputs = append(part.outputs, ccssOutput{
				off: m.off[op.Sig], words: words, oldOff: oldOff,
				consumers: toInt32s(op.Consumers),
			})
			oldOff += words
		}
		c.parts[p] = part
	}
	c.oldVals = make([]uint64, oldOff)

	// Register and memory wake plumbing.
	c.regReaderParts = make([][]int32, len(d.Regs))
	c.regNext = make([]operand, len(d.Regs))
	c.regOut = make([]operand, len(d.Regs))
	for ri := range d.Regs {
		c.regReaderParts[ri] = toInt32s(plan.RegReaderParts[ri])
		c.regNext[ri] = m.operandOf(netlist.SigArg(d.Regs[ri].Next))
		c.regOut[ri] = m.operandOf(netlist.SigArg(d.Regs[ri].Out))
	}
	c.memReaderParts = make([][]int32, len(d.Mems))
	for mi := range d.Mems {
		c.memReaderParts[mi] = toInt32s(plan.MemReaderParts[mi])
	}

	// Input change detection.
	prevOff := int32(0)
	for i, in := range d.Inputs {
		words := int32(bits.Words(d.Signals[in].Width))
		c.inputs = append(c.inputs, ccssInput{
			off: m.off[in], words: words, prevOff: prevOff,
			consumers: toInt32s(plan.InputConsumers[i]),
		})
		prevOff += words
	}
	c.prevIn = make([]uint64, prevOff)

	c.wakeAll()
	return c, nil
}

// wakeAll flags every partition (first cycle and after Reset).
func (c *CCSS) wakeAll() {
	c.flags.setFirst(len(c.parts))
	// Invalidate input history so the first Step re-seeds it.
	c.poked = true
	for i := range c.prevIn {
		c.prevIn[i] = ^uint64(0)
	}
	for i := range c.pullSnap {
		c.pullSnap[i] = ^uint64(0)
	}
}

// Poke sets an input and arms the next step's input rescan.
func (c *CCSS) Poke(id netlist.SignalID, v uint64) {
	c.machine.Poke(id, v)
	c.poked = true
}

// PokeWide sets a wide input and arms the next step's input rescan.
func (c *CCSS) PokeWide(id netlist.SignalID, words []uint64) {
	c.machine.PokeWide(id, words)
	c.poked = true
}

// PokeMem writes a memory word and wakes the memory's read-port
// partitions so stale read data is recomputed.
func (c *CCSS) PokeMem(mem, addr int, v uint64) {
	c.machine.PokeMem(mem, addr, v)
	c.poked = true
	for _, q := range c.memReaderParts[mem] {
		c.flags.set(q)
	}
}

// Reset restores initial state and re-arms every partition.
func (c *CCSS) Reset() {
	c.machine.Reset()
	c.dirtyRegs = c.dirtyRegs[:0]
	c.wakeAll()
}

// Step simulates n cycles with conditional partition evaluation.
func (c *CCSS) Step(n int) error {
	if c.pull {
		for i := 0; i < n; i++ {
			if err := c.stepOnePull(); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := c.stepOne(); err != nil {
			return err
		}
	}
	return nil
}

// scanInputs detects external input changes and wakes dependent
// partitions. Inputs only change through pokes, so the scan runs only on
// steps following one (poked also covers Reset via wakeAll).
func (c *CCSS) scanInputs() {
	if !c.poked {
		return
	}
	c.poked = false
	m := c.machine
	t := m.t
	for i := range c.inputs {
		in := &c.inputs[i]
		m.stats.InputChecks++
		changed := false
		for w := int32(0); w < in.words; w++ {
			if t[in.off+w] != c.prevIn[in.prevOff+w] {
				changed = true
				c.prevIn[in.prevOff+w] = t[in.off+w]
			}
		}
		if changed {
			for _, p := range in.consumers {
				c.flags.set(p)
			}
			m.stats.Wakes += uint64(len(in.consumers))
		}
	}
}

// evalPart evaluates one woken partition: save old outputs, run the
// instruction span, compare-and-wake, mark dirty registers. One-word
// outputs (nearly all of them) save and compare directly.
func (c *CCSS) evalPart(p int32) {
	m := c.machine
	t := m.t
	part := &c.parts[p]
	old := c.oldVals
	c.flags.clear(p)
	m.stats.PartEvals++
	// Save old output values (Fig. 1: deactivate, save, compute).
	for oi := range part.outputs {
		part.outputs[oi].save(t, old)
	}
	m.runRange(part.schedStart, part.schedEnd)
	// Change detection and push triggering.
	m.stats.OutputCompares += uint64(len(part.outputs))
	for oi := range part.outputs {
		o := &part.outputs[oi]
		if !o.changed(t, old) {
			continue
		}
		m.stats.SignalChanges++
		for _, q := range o.consumers {
			c.flags.set(q)
		}
		m.stats.Wakes += uint64(len(o.consumers))
	}
	// Non-elided registers written here must be committed and
	// compared at the cycle boundary.
	if len(part.regs) > 0 {
		c.dirtyRegs = append(c.dirtyRegs, part.regs...)
	}
}

// save copies the output's current value into its old-value slot.
func (o *ccssOutput) save(t, old []uint64) {
	if o.words == 1 {
		old[o.oldOff] = t[o.off]
		return
	}
	copy(old[o.oldOff:o.oldOff+o.words], t[o.off:o.off+o.words])
}

// changed reports whether the output differs from its saved old value.
func (o *ccssOutput) changed(t, old []uint64) bool {
	if o.words == 1 {
		return t[o.off] != old[o.oldOff]
	}
	for w := int32(0); w < o.words; w++ {
		if t[o.off+w] != old[o.oldOff+w] {
			return true
		}
	}
	return false
}

// stepOne walks the static partition schedule (singular execution) a
// flag word at a time: each set bit of flags|alwaysOn is evaluated in
// partition order, and the word is re-read after every evaluation so a
// forward wake into the same word still runs this cycle. PartChecks
// keeps the paper's accounting of one logical flag check per partition
// per cycle.
func (c *CCSS) stepOne() error {
	if c.stopErr != nil {
		return c.stopErr
	}
	c.scanInputs()
	flags, on := c.flags, c.alwaysOn
	for w := range flags {
		for bitsW := flags[w] | on[w]; bitsW != 0; {
			b := stdbits.TrailingZeros64(bitsW)
			c.evalPart(int32(w*64 + b))
			bitsW = after(flags[w]|on[w], b)
		}
	}
	c.machine.stats.PartChecks += uint64(len(c.parts))
	return c.finishCycle()
}

// finishCycle commits state after the partition walk: dirty two-phase
// registers with change detection + wakeups, then pending memory writes.
// Every CCSS-family scan (scalar and vectorized) ends a cycle here.
func (c *CCSS) finishCycle() error {
	m := c.machine
	t := m.t
	err := m.evalErr
	m.evalErr = nil

	// Commit: dirty two-phase registers with change detection + wakeups.
	for _, ri := range c.dirtyRegs {
		no, oo := c.regNext[ri], c.regOut[ri]
		changed := false
		for w := int32(0); w < no.words(); w++ {
			if t[oo.off+w] != t[no.off+w] {
				t[oo.off+w] = t[no.off+w]
				changed = true
			}
		}
		m.stats.OutputCompares++
		if changed {
			m.stats.SignalChanges++
			for _, q := range c.regReaderParts[ri] {
				c.flags.set(q)
			}
			m.stats.Wakes += uint64(len(c.regReaderParts[ri]))
		}
	}
	c.dirtyRegs = c.dirtyRegs[:0]

	// Apply pending memory writes; wake reader-port partitions.
	for i := range m.memWrites {
		w := &m.memWrites[i]
		if !w.pendValid {
			continue
		}
		w.pendValid = false
		ms := &m.mems[w.mem]
		if w.pendAddr >= uint64(ms.depth) {
			continue
		}
		base := int32(w.pendAddr) * ms.nw
		changed := false
		for k := int32(0); k < ms.nw; k++ {
			var v uint64
			if int(k) < len(w.pendData) {
				v = w.pendData[k]
			}
			if ms.words[base+k] != v {
				ms.words[base+k] = v
				changed = true
			}
		}
		if changed {
			for _, q := range c.memReaderParts[w.mem] {
				c.flags.set(q)
			}
			m.stats.Wakes += uint64(len(c.memReaderParts[w.mem]))
		}
	}

	m.cycle++
	m.stats.Cycles++
	if err != nil {
		m.stopErr = err
	}
	return err
}

// words returns the operand word count.
func (o operand) words() int32 { return int32(bits.Words(int(o.w))) }

// NumPartitions returns the partition count.
func (c *CCSS) NumPartitions() int { return len(c.parts) }

var _ Simulator = (*CCSS)(nil)
