package sim

import (
	"fmt"
	"io"
	stdbits "math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"essent/internal/netlist"
	"essent/internal/verify"
)

// ParallelCCSS evaluates active partitions concurrently, walking the
// barrier-level schedule computed by the planner (sched.CCSSPlan
// LevelSpecs). Partitions on the same DAG level are mutually independent
// (no data or ordering path connects them), so their evaluations touch
// disjoint value-table regions. This is the thread-parallel extension of
// the paper's CCSS engine, shaped by the static bulk-synchronous style of
// Manticore/GSIM: all load balancing happens at compile time.
//
// Execution model:
//
//   - A persistent pool of workers-1 goroutines lives for the simulator's
//     lifetime, parked on a phase barrier. Dispatching a level is one
//     barrier release + one completion wait — no goroutine spawning and
//     no WaitGroup churn per level per cycle.
//   - Each parallel level is pre-chunked at construction into per-worker
//     spans of roughly equal static cost (internal/partition cost model),
//     plus a small work-stealing tail dispensed by an atomic counter for
//     residual imbalance. The common case touches no shared cacheline.
//   - Wakes from concurrently evaluated partitions go to per-worker wake
//     buffers, merged serially at the level boundary. Consumers of a
//     partition's outputs are never on the producer's own level (the
//     planner guarantees it; see sched levels_test), so deferring the
//     flag writes to the boundary is semantics-preserving — and it
//     removes the shared atomic flag array entirely.
//   - Per-level activity counters let the dispatcher skip whole inactive
//     levels without scanning any flags, and route low-cost levels
//     through an inline serial path that skips the barrier: parking the
//     pool is only worth it when a level has enough active work.
//
// Semantics match CCSS exactly except printf interleaving: printfs from
// partitions on the same level may appear in any order. Merged Stats are
// deterministic across worker counts (every counter is a sum of
// per-partition quantities, and the dispatch decisions depend only on
// deterministic activity state).
type ParallelCCSS struct {
	*CCSS

	workers int
	// serialCutoff is the active-cost threshold below which a level runs
	// inline on the dispatcher instead of crossing the barrier. It is
	// applied per level as a precomputed minimum active count
	// (levelRun.minActive), never as runtime cost arithmetic.
	serialCutoff int64

	// levels is the barrier schedule (one entry per plan LevelSpec).
	levels []levelRun
	// lvlOf maps runtime partition ID -> levels index (plan.SpecOf).
	lvlOf []int32
	// levelActive counts flagged partitions per level; maintained only by
	// the dispatcher (wake merges are serial), so a plain int32 suffices.
	// Keeping it to a single counter keeps wakePart — the hottest
	// bookkeeping op — to one branch and one increment.
	levelActive []int32

	// wm holds one machine view per worker: shared value table, memories,
	// and instruction stream; private scratch, stats, and error slot.
	// wm[0] is the dispatcher's own view.
	wm []*machine
	// wDirty collects non-elided register commits per worker.
	wDirty [][]int32
	// wakeBuf collects consumer wakes per worker during a parallel level.
	wakeBuf [][]int32

	bar      *phaseBarrier
	curLevel int32
	tailNext atomic.Int64
	started  bool
	closed   bool
	quit     atomic.Bool

	// wPanic records a recovered panic per worker for the level in
	// flight (nil when the span completed normally); wCur tracks the
	// partition each worker was evaluating, for the error's context.
	wPanic []error
	wCur   []int32
	// degraded routes every subsequent level through the inline serial
	// path after a recovered worker panic: the pool stays parked, the
	// run keeps going with sequential CCSS semantics. Reset clears it.
	degraded  bool
	lastPanic error
	// failpoint, when set, runs at the start of every span with
	// (level, worker) — the fault-injection hook for exercising the
	// recovery path.
	failpoint func(level, wid int)

	outMu sync.Mutex
	// mergedStats is the snapshot returned by Stats().
	mergedStats Stats
}

// levelRun is the runtime form of one sched.LevelSpec.
type levelRun struct {
	// parts lists runtime partition IDs in execution order.
	parts []int32
	// [start,end) equals parts when the IDs are one contiguous range —
	// always true with the planner's level-major numbering. The inline
	// path then scans flags linearly, exactly like the sequential engine.
	start, end int32
	contig     bool
	// bounds[w]:bounds[w+1] is worker w's pre-chunked span (parallel
	// specs only); parts[tail:] is the shared work-stealing pool.
	bounds []int32
	tail   int32
	serial bool
	// alwaysOn partitions run even when unflagged; their count feeds the
	// skip / inline decisions.
	alwaysOn int
	// aoBias is a constant added to the spec's levelActive counter when it
	// contains always-on partitions, so the dispatcher's skip test is a
	// bare levelActive[li] == 0 compare on a dense array — idle specs
	// never load this struct at all.
	aoBias int32
	cost   int64
	// minActive is the active-partition count at which crossing the
	// barrier beats running inline: SerialCutoff divided by the level's
	// mean partition cost, precomputed so the per-cycle dispatch decision
	// is a single integer compare (no runtime cost accounting).
	minActive int32
	// elided locates the table words of registers this level updates in
	// place; elSnap is their pre-dispatch snapshot. Partition evaluation
	// is idempotent for everything except in-place register updates, so
	// panic recovery must roll these back before re-running the level.
	elided []operand
	elSnap []uint64
}

// ParallelOptions configures the parallel engine.
type ParallelOptions struct {
	// Cp is the partitioning threshold (0 = 8).
	Cp int
	// Workers is the total worker count including the dispatcher. An
	// explicit value is honored exactly, with no upper cap — hosts with
	// more than 8 cores get more than 8 workers if they ask for them.
	// Zero selects the default: GOMAXPROCS capped at 8, a conservative
	// bound for the level-barrier synchronization cost on very wide
	// hosts.
	Workers int
	// NoFuse disables superinstruction fusion (ablation knob).
	NoFuse bool
	// SerialCutoff overrides the active-cost threshold below which a
	// level is evaluated inline on the dispatcher (0 = default). Tests
	// set 1 to force every active level through the worker pool.
	SerialCutoff int64
	// Verify selects static-verification enforcement (strict by default).
	Verify verify.Mode
}

// defaultWorkerCap bounds only the Workers=0 default, not explicit
// requests: per-level work on the evaluation designs saturates around
// eight workers, and the barrier cost grows past it.
const defaultWorkerCap = 8

// defaultSerialCutoff is the active static cost (≈ns of single-threaded
// evaluation) below which crossing the barrier costs more than it saves.
const defaultSerialCutoff = 8192

// NewParallelCCSS compiles a parallel CCSS simulator.
func NewParallelCCSS(d *netlist.Design, opts ParallelOptions) (*ParallelCCSS, error) {
	base, err := NewCCSS(d, CCSSOptions{Cp: opts.Cp, NoFuse: opts.NoFuse,
		Verify: opts.Verify})
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > defaultWorkerCap {
			workers = defaultWorkerCap
		}
	}
	if workers < 1 {
		workers = 1
	}
	cutoff := opts.SerialCutoff
	if cutoff <= 0 {
		cutoff = defaultSerialCutoff
	}
	p := &ParallelCCSS{CCSS: base, workers: workers, serialCutoff: cutoff}
	plan := base.plan
	p.lvlOf = plan.SpecOf
	p.levels = make([]levelRun, len(plan.LevelSpecs))
	for li, spec := range plan.LevelSpecs {
		lv := levelRun{parts: toInt32s(spec.Parts), serial: spec.Serial,
			cost: spec.Cost}
		lv.contig = true
		for i, pi := range lv.parts {
			if pi != lv.parts[0]+int32(i) {
				lv.contig = false
				break
			}
		}
		if lv.contig {
			lv.start = lv.parts[0]
			lv.end = lv.start + int32(len(lv.parts))
		}
		for _, pi := range lv.parts {
			if base.alwaysOn.has(pi) {
				lv.alwaysOn++
			}
		}
		if lv.alwaysOn > 0 {
			lv.aoBias = 1 << 20
		}
		if !lv.serial {
			lv.bounds, lv.tail = chunkLevel(lv.parts, plan.PartCosts, workers)
			avg := lv.cost / int64(len(lv.parts))
			if avg < 1 {
				avg = 1
			}
			lv.minActive = int32((cutoff + avg - 1) / avg)
			if lv.minActive < 2 {
				lv.minActive = 2
			}
		}
		p.levels[li] = lv
	}

	// Attach each elided (in-place-updated) register to the parallel
	// level that evaluates its writer partition: the dispatcher
	// snapshots those words before releasing the pool so a recovered
	// worker panic can roll the level back and rerun it exactly once.
	if plan.NumElided > 0 {
		partOf := map[int]int32{}
		for pi := range plan.Parts {
			for _, n := range plan.Parts[pi].Members {
				partOf[n] = int32(pi)
			}
		}
		for ri := range d.Regs {
			if !plan.Elided[ri] {
				continue
			}
			pi, ok := partOf[int(d.Regs[ri].Next)]
			if !ok {
				continue
			}
			lv := &p.levels[plan.SpecOf[pi]]
			if lv.serial {
				continue // serial specs never cross the pool
			}
			lv.elided = append(lv.elided, base.regOut[ri])
		}
		for li := range p.levels {
			lv := &p.levels[li]
			n := 0
			for _, o := range lv.elided {
				n += int(o.words())
			}
			if n > 0 {
				lv.elSnap = make([]uint64, n)
			}
		}
	}
	p.levelActive = make([]int32, len(p.levels))

	// Worker machine views: share table/memories/pending buffers, own
	// scratch and counters. Display output serializes through a locked
	// writer that follows the engine's current sink, so the default
	// matches the sequential engine and SetOutput needs no fan-out.
	p.wm = make([]*machine, workers)
	p.wDirty = make([][]int32, workers)
	p.wakeBuf = make([][]int32, workers)
	p.wPanic = make([]error, workers)
	p.wCur = make([]int32, workers)
	for w := 0; w < workers; w++ {
		mc := *base.machine
		maxWords := len(base.machine.scratch[0])
		for i := range mc.scratch {
			mc.scratch[i] = make([]uint64, maxWords)
		}
		mc.stats = Stats{}
		mc.out = &lockedWriter{p: p}
		p.wm[w] = &mc
	}
	p.bar = newPhaseBarrier(workers - 1)
	p.wakeAllPar()
	return p, nil
}

// chunkLevel splits a level's partitions into nw spans of roughly equal
// static cost, reserving a trailing ~1/8-cost pool for work stealing.
// Tiny levels (fewer than 4 partitions per worker) skip the static split
// entirely: everything goes through the stealing counter.
func chunkLevel(parts []int32, cost []int64, nw int) ([]int32, int32) {
	bounds := make([]int32, nw+1)
	if len(parts) < 4*nw {
		return bounds, 0
	}
	var total int64
	for _, pi := range parts {
		total += cost[pi]
	}
	// Trailing steal pool: at least nw items, roughly total/8 cost.
	tail := len(parts)
	var stealCost int64
	for tail > 0 && (stealCost < total/8 || len(parts)-tail < nw) {
		tail--
		stealCost += cost[parts[tail]]
	}
	prefixCost := total - stealCost
	var acc int64
	w := 1
	for i := 0; i < tail && w < nw; i++ {
		acc += cost[parts[i]]
		if acc*int64(nw) >= prefixCost*int64(w) {
			bounds[w] = int32(i + 1)
			w++
		}
	}
	for ; w <= nw; w++ {
		bounds[w] = int32(tail)
	}
	return bounds, int32(tail)
}

// lockedWriter serializes printf output across workers and delegates to
// the engine's current output sink.
type lockedWriter struct{ p *ParallelCCSS }

func (lw *lockedWriter) Write(b []byte) (int, error) {
	lw.p.outMu.Lock()
	defer lw.p.outMu.Unlock()
	return lw.p.machine.out.Write(b)
}

// SetOutput directs printf output (serialized across workers).
func (p *ParallelCCSS) SetOutput(w io.Writer) {
	p.outMu.Lock()
	p.machine.out = w
	p.outMu.Unlock()
}

// --- phase barrier ---

// phaseBarrier is the park point for the persistent pool. The dispatcher
// opens a phase by bumping a monotone counter (the generalization of a
// sense-reversing barrier: followers compare against a locally tracked
// epoch, so no flag ever needs resetting); followers spin briefly on the
// counter and park on a buffered channel when the gap between levels is
// long. Completion is a single atomic countdown with one channel send by
// the last arriver — at most one barrier crossing per dispatched level.
type phaseBarrier struct {
	phase   atomic.Uint64
	pending atomic.Int64
	done    chan struct{}
	asleep  []atomic.Uint32
	wake    []chan struct{}
}

func newPhaseBarrier(followers int) *phaseBarrier {
	b := &phaseBarrier{done: make(chan struct{}, 1)}
	b.asleep = make([]atomic.Uint32, followers)
	b.wake = make([]chan struct{}, followers)
	for i := range b.wake {
		b.wake[i] = make(chan struct{}, 1)
	}
	return b
}

// release opens the next phase. Only parked followers get a channel
// send; spinners observe the counter alone, so back-to-back levels stay
// wait-free.
func (b *phaseBarrier) release() {
	b.pending.Store(int64(len(b.wake)) + 1)
	b.phase.Add(1)
	for w := range b.wake {
		if b.asleep[w].Swap(0) == 1 {
			select {
			case b.wake[w] <- struct{}{}:
			default:
			}
		}
	}
}

// await blocks follower w until the phase counter reaches target.
// Tokens in the wake channel are pure hints — only the counter decides —
// so stale tokens from racing parks cost one spurious loop, never
// correctness.
func (b *phaseBarrier) await(w int, target uint64) {
	for spins := 0; ; spins++ {
		if b.phase.Load() >= target {
			return
		}
		switch {
		case spins < 64:
			// Busy-spin: the dispatcher is usually between two adjacent
			// active levels.
		case spins < 192:
			runtime.Gosched()
		default:
			b.asleep[w].Store(1)
			if b.phase.Load() >= target {
				b.asleep[w].Store(0)
				return
			}
			<-b.wake[w]
		}
	}
}

// arrive reports a follower's span completion.
func (b *phaseBarrier) arrive() {
	if b.pending.Add(-1) == 0 {
		b.done <- struct{}{}
	}
}

// waitDone is the dispatcher's own arrival plus the completion wait.
func (b *phaseBarrier) waitDone() {
	if b.pending.Add(-1) == 0 {
		return
	}
	<-b.done
}

func (p *ParallelCCSS) startPool() {
	p.started = true
	for w := 1; w < p.workers; w++ {
		go p.workerLoop(w)
	}
}

func (p *ParallelCCSS) workerLoop(wid int) {
	var epoch uint64
	for {
		epoch++
		p.bar.await(wid-1, epoch)
		if p.quit.Load() {
			return
		}
		p.runSpansSafe(wid)
		p.bar.arrive()
	}
}

// WorkerPanicError is a panic recovered inside a pool worker, tagged
// with enough schedule context to localize the failing partition.
type WorkerPanicError struct {
	Worker    int
	Level     int
	Partition int32
	Value     any
	Stack     []byte
}

func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("sim: worker %d panic at level %d partition %d: %v",
		e.Worker, e.Level, e.Partition, e.Value)
}

// runSpansSafe wraps runSpans with panic recovery so a failing
// partition never unwinds past the barrier: the worker records the
// panic, arrives normally, and the dispatcher handles degradation
// after the completion wait. Both the pool followers and the
// dispatcher's own span run through it.
func (p *ParallelCCSS) runSpansSafe(wid int) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			buf = buf[:runtime.Stack(buf, false)]
			p.wPanic[wid] = &WorkerPanicError{
				Worker:    wid,
				Level:     int(p.curLevel),
				Partition: p.wCur[wid],
				Value:     r,
				Stack:     buf,
			}
		}
	}()
	if fp := p.failpoint; fp != nil {
		fp(int(p.curLevel), wid)
	}
	p.runSpans(wid)
}

// Close retires the worker pool. The engine stays usable — subsequent
// steps take the inline path — so deferred Close in tests and the
// experiment harness is always safe.
func (p *ParallelCCSS) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if !p.started {
		return
	}
	p.quit.Store(true)
	p.bar.release()
}

// --- per-cycle evaluation ---

// wakePart flags a partition and maintains the per-level activity
// counters. Dispatcher-only: parallel-phase wakes go through wakeBuf.
func (p *ParallelCCSS) wakePart(q int32) {
	if !p.flags.has(q) {
		p.flags.set(q)
		p.levelActive[p.lvlOf[q]]++
	}
}

// wakeAllPar flags every partition and saturates the level counters.
func (p *ParallelCCSS) wakeAllPar() {
	p.CCSS.wakeAll()
	for li := range p.levels {
		p.levelActive[li] = int32(len(p.levels[li].parts)) + p.levels[li].aoBias
	}
}

// Reset restores initial state, clears all counter snapshots (merged and
// per-worker), and re-arms every partition.
func (p *ParallelCCSS) Reset() {
	p.machine.Reset()
	fused := p.machine.stats.FusedPairs
	p.machine.stats = Stats{FusedPairs: fused}
	for w := range p.wm {
		p.wm[w].stats = Stats{}
		p.wm[w].evalErr = nil
		p.wDirty[w] = p.wDirty[w][:0]
		p.wakeBuf[w] = p.wakeBuf[w][:0]
		p.wPanic[w] = nil
	}
	p.mergedStats = Stats{}
	p.degraded = false
	p.lastPanic = nil
	p.wakeAllPar()
}

// PokeMem writes a memory word and wakes dependent read-port partitions.
func (p *ParallelCCSS) PokeMem(mem, addr int, v uint64) {
	p.machine.PokeMem(mem, addr, v)
	p.poked = true
	for _, q := range p.memReaderParts[mem] {
		p.wakePart(q)
	}
}

// Stats returns merged counters across the dispatcher and all workers.
// The merge is deterministic across worker counts: every counter is a
// sum of per-partition quantities and the level dispatch decisions
// depend only on deterministic activity state.
func (p *ParallelCCSS) Stats() *Stats {
	merged := p.machine.stats
	for _, mc := range p.wm {
		merged.OpsEvaluated += mc.stats.OpsEvaluated
		merged.SignalChanges += mc.stats.SignalChanges
		merged.PartChecks += mc.stats.PartChecks
		merged.PartEvals += mc.stats.PartEvals
		merged.OutputCompares += mc.stats.OutputCompares
		merged.Wakes += mc.stats.Wakes
	}
	p.mergedStats = merged
	return &p.mergedStats
}

// Step simulates n cycles.
func (p *ParallelCCSS) Step(n int) error {
	for i := 0; i < n; i++ {
		if err := p.stepOne(); err != nil {
			return err
		}
	}
	return nil
}

// evalPart runs one partition on a worker view during a parallel phase.
// Wakes are buffered: consumers append to the worker's wake buffer for
// the serial merge at the level boundary. (The inline serial path uses
// evalDirect, whose wakes apply immediately — required inside fused
// serial specs where a consumer at a later level must still run this
// cycle.)
func (p *ParallelCCSS) evalPart(wm *machine, wid int, pi int32) {
	part := &p.parts[pi]
	p.wCur[wid] = pi
	wm.stats.PartEvals++
	t, old := wm.t, p.oldVals
	for oi := range part.outputs {
		part.outputs[oi].save(t, old)
	}
	wm.runRange(part.schedStart, part.schedEnd)
	wm.stats.OutputCompares += uint64(len(part.outputs))
	for oi := range part.outputs {
		o := &part.outputs[oi]
		if o.changed(t, old) {
			wm.stats.SignalChanges++
			p.wakeBuf[wid] = append(p.wakeBuf[wid], o.consumers...)
			wm.stats.Wakes += uint64(len(o.consumers))
		}
	}
	if len(part.regs) > 0 {
		p.wDirty[wid] = append(p.wDirty[wid], part.regs...)
	}
}

// runSpans evaluates worker wid's share of the current parallel level:
// its pre-chunked span, then whatever remains in the steal pool. Each
// partition is visited by exactly one worker (disjoint spans; the tail
// counter dispenses each index once), and no flag of the running level
// is written during the phase: wakes are buffered, the planner forbids
// same-level consumers, and the level's flags are cleared by the
// dispatcher after the completion wait (partitions of one level share
// flag words, so a worker-side clear would race).
func (p *ParallelCCSS) runSpans(wid int) {
	lv := &p.levels[p.curLevel]
	wm := p.wm[wid]
	for _, pi := range lv.parts[lv.bounds[wid]:lv.bounds[wid+1]] {
		p.runPart(wm, wid, pi)
	}
	n := int64(len(lv.parts))
	base := int64(lv.tail)
	for {
		i := base + p.tailNext.Add(1) - 1
		if i >= n {
			return
		}
		p.runPart(wm, wid, lv.parts[i])
	}
}

func (p *ParallelCCSS) runPart(wm *machine, wid int, pi int32) {
	wm.stats.PartChecks++
	if p.flags.has(pi) || p.alwaysOn.has(pi) {
		p.evalPart(wm, wid, pi)
	}
}

// runInline evaluates a level serially on the dispatcher, with direct
// wakes (so fused serial specs preserve the sequential engine's
// same-cycle forward triggering) and incremental counter maintenance.
// Contiguous levels scan flag words like the sequential walk.
func (p *ParallelCCSS) runInline(li int) {
	lv := &p.levels[li]
	wm := p.wm[0]
	flags, on := p.flags, p.alwaysOn
	if lv.contig {
		wm.stats.PartChecks += uint64(lv.end - lv.start)
		for w := lv.start / 64; w*64 < lv.end; w++ {
			span := spanMask(w, lv.start, lv.end)
			for bs := (flags[w] | on[w]) & span; bs != 0; {
				b := stdbits.TrailingZeros64(bs)
				pi := w*64 + int32(b)
				if flags.has(pi) {
					flags.clear(pi)
					p.levelActive[li]--
				}
				p.evalDirect(wm, pi)
				bs = after(flags[w]|on[w], b) & span
			}
		}
		return
	}
	for _, pi := range lv.parts {
		wm.stats.PartChecks++
		if flags.has(pi) {
			flags.clear(pi)
			p.levelActive[li]--
		} else if !on.has(pi) {
			continue
		}
		p.evalDirect(wm, pi)
	}
}

// evalDirect is evalPart specialized for the inline serial path: direct
// wakes, dispatcher buffers. Kept separate from the buffered variant so
// the per-eval hot path carries no mode branch and no worker index.
func (p *ParallelCCSS) evalDirect(wm *machine, pi int32) {
	part := &p.parts[pi]
	wm.stats.PartEvals++
	t, old := wm.t, p.oldVals
	for oi := range part.outputs {
		part.outputs[oi].save(t, old)
	}
	wm.runRange(part.schedStart, part.schedEnd)
	wm.stats.OutputCompares += uint64(len(part.outputs))
	for oi := range part.outputs {
		o := &part.outputs[oi]
		if o.changed(t, old) {
			wm.stats.SignalChanges++
			for _, q := range o.consumers {
				p.wakePart(q)
			}
			wm.stats.Wakes += uint64(len(o.consumers))
		}
	}
	if len(part.regs) > 0 {
		p.wDirty[0] = append(p.wDirty[0], part.regs...)
	}
}

// runParallel dispatches one level across the pool: a single barrier
// release, the dispatcher working its own span, one completion wait,
// then the serial wake-buffer merge.
func (p *ParallelCCSS) runParallel(li int) {
	if !p.started {
		p.startPool()
	}
	for _, mc := range p.wm[1:] {
		mc.cycle = p.machine.cycle
	}
	// Snapshot the level's in-place-updated registers before any worker
	// can touch them (see levelRun.elided).
	if lv := &p.levels[li]; lv.elSnap != nil {
		t, pos := p.machine.t, 0
		for _, o := range lv.elided {
			nw := int(o.words())
			copy(lv.elSnap[pos:pos+nw], t[o.off:o.off+int32(nw)])
			pos += nw
		}
	}
	p.curLevel = int32(li)
	p.tailNext.Store(0)
	p.bar.release()
	p.runSpansSafe(0)
	p.bar.waitDone()
	// Every flag in the level was consumed by some worker; clear them
	// here, on the dispatcher. Feedback wakes (including self-wakes)
	// re-arm below during the merge.
	if lv := &p.levels[li]; lv.contig {
		p.flags.clearRange(lv.start, lv.end)
	} else {
		for _, pi := range lv.parts {
			p.flags.clear(pi)
		}
	}
	p.levelActive[li] = p.levels[li].aoBias
	var pe error
	for w := range p.wPanic {
		if p.wPanic[w] != nil && pe == nil {
			pe = p.wPanic[w]
		}
		p.wPanic[w] = nil
	}
	if pe != nil {
		p.recoverLevel(li, pe)
		return
	}
	for w := range p.wakeBuf {
		for _, q := range p.wakeBuf[w] {
			p.wakePart(q)
		}
		p.wakeBuf[w] = p.wakeBuf[w][:0]
	}
}

// recoverLevel handles a recovered worker panic: degrade to sequential
// evaluation and rerun the level inline. A panicking worker may have
// left partition outputs half-written and the rest of its span
// unevaluated, which poisons the oldVals-based change detection — so
// discard the buffered wakes, roll back the level's in-place register
// updates (the one non-idempotent effect of partition evaluation; see
// levelRun.elided), flag every partition, and rerun the level on the
// dispatcher. With elided registers restored, already-evaluated
// partitions recompute identical results, unevaluated ones run now,
// and with every consumer flagged no wake can be missed. Later levels
// run inline this cycle; earlier levels re-evaluate (idempotently, they
// see unchanged inputs) next cycle. The degraded flag keeps all
// subsequent levels on the inline path until Reset.
func (p *ParallelCCSS) recoverLevel(li int, pe error) {
	p.degraded = true
	p.lastPanic = pe
	p.machine.stats.WorkerPanics++
	for w := range p.wakeBuf {
		p.wakeBuf[w] = p.wakeBuf[w][:0]
	}
	if lv := &p.levels[li]; lv.elSnap != nil {
		t, pos := p.machine.t, 0
		for _, o := range lv.elided {
			nw := int(o.words())
			copy(t[o.off:o.off+int32(nw)], lv.elSnap[pos:pos+nw])
			pos += nw
		}
	}
	p.wakeAllPar()
	p.runInline(li)
}

// Degraded reports whether a recovered worker panic has routed the
// engine to sequential evaluation.
func (p *ParallelCCSS) Degraded() bool { return p.degraded }

// LastPanic returns the panic that triggered degradation (a
// *WorkerPanicError), or nil.
func (p *ParallelCCSS) LastPanic() error { return p.lastPanic }

// SetFailpoint installs a hook invoked at the start of every span run
// with (level, worker). Fault-injection tests use it to panic inside a
// worker and exercise the degradation path; nil removes it.
func (p *ParallelCCSS) SetFailpoint(fp func(level, wid int)) { p.failpoint = fp }

func (p *ParallelCCSS) stepOne() error {
	m := p.machine
	if m.stopErr != nil {
		return m.stopErr
	}
	t := m.t

	// Keep the dispatcher view's cycle counter current (error reporting
	// reads it); the other worker views sync lazily in runParallel, so an
	// all-inline cycle touches no extra machine structs.
	p.wm[0].cycle = m.cycle

	// Serial preamble: input change detection, skipped entirely when no
	// poke armed it (mirrors the sequential engine's poked gating).
	if p.poked {
		p.poked = false
		for i := range p.inputs {
			in := &p.inputs[i]
			m.stats.InputChecks++
			changed := false
			for w := int32(0); w < in.words; w++ {
				if t[in.off+w] != p.prevIn[in.prevOff+w] {
					changed = true
					p.prevIn[in.prevOff+w] = t[in.off+w]
				}
			}
			if changed {
				for _, q := range in.consumers {
					p.wakePart(q)
				}
				m.stats.Wakes += uint64(len(in.consumers))
			}
		}
	}

	// Walk the barrier-level schedule. Levels with no flagged and no
	// always-on partitions are skipped without touching a single flag —
	// the low-activity fast path the whole layout exists for. The skip
	// test is one compare on a dense counter array (always-on specs carry
	// a permanent bias, so they never read as idle).
	la := p.levelActive
	for li := range la {
		active := la[li]
		if active == 0 {
			continue
		}
		lv := &p.levels[li]
		if lv.serial || p.workers == 1 || p.closed || p.degraded ||
			int(active-lv.aoBias)+lv.alwaysOn < int(lv.minActive) {
			p.runInline(li)
		} else {
			p.runParallel(li)
		}
	}

	// Collect worker errors (first non-nil by worker index; which error
	// surfaces when several partitions fail in one cycle is
	// nondeterministic by construction).
	var err error
	for _, mc := range p.wm {
		if mc.evalErr != nil && err == nil {
			err = mc.evalErr
		}
		mc.evalErr = nil
	}

	// Serial commit: non-elided registers, then pending memory writes.
	for w := range p.wDirty {
		for _, ri := range p.wDirty[w] {
			no, oo := p.regNext[ri], p.regOut[ri]
			changed := false
			for k := int32(0); k < no.words(); k++ {
				if t[oo.off+k] != t[no.off+k] {
					t[oo.off+k] = t[no.off+k]
					changed = true
				}
			}
			m.stats.OutputCompares++
			if changed {
				m.stats.SignalChanges++
				for _, q := range p.regReaderParts[ri] {
					p.wakePart(q)
				}
				m.stats.Wakes += uint64(len(p.regReaderParts[ri]))
			}
		}
		p.wDirty[w] = p.wDirty[w][:0]
	}
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
			for _, q := range p.memReaderParts[w.mem] {
				p.wakePart(q)
			}
			m.stats.Wakes += uint64(len(p.memReaderParts[w.mem]))
		}
	}

	m.cycle++
	m.stats.Cycles++
	if err != nil {
		m.stopErr = err
	}
	return err
}

var _ Simulator = (*ParallelCCSS)(nil)
