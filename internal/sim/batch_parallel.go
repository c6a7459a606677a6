package sim

import (
	"runtime"

	"essent/pkg/simrt"
)

// Pool composition: BatchCCSS reuses the parallel engine's persistent
// phase barrier (parallel.go) to split one level spec's work across
// workers as (partition-chunk × lane-group) items. Chunks are the
// static cost-balanced spans from chunkSpans; lane groups are fixed
// contiguous slices of the batch. Items are dispensed by an atomic
// counter, so a worker that drew a cheap item (an idle lane group, a
// low-activity chunk) immediately pulls the next one.
//
// During a pooled phase partition masks are read-only (workers read the
// pre-scanned emBuf), wakes and register marks go to per-context
// buffers, and every written location — value-table rows, old-value
// rows, per-lane counters — is owned by exactly one (partition, lane)
// pair, with lanes partitioned by group and partitions by chunk. The
// serial merge at the spec boundary restores the single-threaded
// engine's semantics except printf interleaving and which of several
// same-cycle check errors a lane reports (both already nondeterministic
// in ParallelCCSS).

// runSpecPooled pre-scans one parallel spec's activity and routes it:
// cheap specs run inline on the dispatcher, expensive ones cross the
// barrier. The lane-weighted active cost (Σ cost(p) × active lanes)
// decides, so a spec where one lane limps along does not pay the
// barrier.
func (b *BatchCCSS) runSpecPooled(si int32, sp *batchSpec, live simrt.LaneMask) {
	costs := b.base.plan.PartCosts
	var effort int64
	active := 0
	for _, pi := range sp.parts {
		em := b.pmask[pi]
		if b.base.alwaysOn.has(pi) {
			em = live
		} else {
			em &= live
		}
		b.emBuf[pi] = em
		if em != 0 {
			effort += costs[pi] * int64(em.Count())
			active++
		}
	}
	if active == 0 {
		for _, pi := range sp.parts {
			b.pmask[pi] = 0
		}
		return
	}
	if active < 2 || effort < b.parCutoff {
		for _, pi := range sp.parts {
			b.pmask[pi] = 0
			if em := b.emBuf[pi]; em != 0 {
				b.evalPartBatch(b.ctx[0], pi, em, true)
			}
		}
		return
	}

	if !b.started {
		b.startBatchPool()
	}
	// Snapshot the lane-major rows of registers this spec updates in
	// place (elided regs) so panic recovery can roll them back before
	// re-running; see recoverSpec.
	if sp.elSnap != nil {
		pos := 0
		for _, o := range sp.elided {
			n := int(o.words()) * b.L
			copy(sp.elSnap[pos:pos+n], b.bt[int(o.off)*b.L:int(o.off)*b.L+n])
			pos += n
		}
	}
	b.curSpec = si
	b.curLive = live
	b.itemNext.Store(0)
	b.bar.release()
	b.runItemsSafe(0)
	b.bar.waitDone()

	var pe error
	for w := range b.wPanic {
		if b.wPanic[w] != nil && pe == nil {
			pe = b.wPanic[w]
		}
		b.wPanic[w] = nil
	}
	if pe != nil {
		b.recoverSpec(sp, live, pe)
		return
	}

	for _, pi := range sp.parts {
		b.pmask[pi] = 0
	}
	// Serial merge of buffered side effects.
	for _, c := range b.ctx {
		for _, wk := range c.wakes {
			b.wake(wk.q, wk.m)
		}
		c.wakes = c.wakes[:0]
		for _, r := range c.regs {
			if b.regMask[r.ri] == 0 {
				b.dirtyRegs = append(b.dirtyRegs, r.ri)
			}
			b.regMask[r.ri] |= r.m
		}
		c.regs = c.regs[:0]
	}
}

// runItems drains the current spec's item pool on one agent.
func (b *BatchCCSS) runItems(wid int) {
	c := b.ctx[wid]
	sp := &b.specs[b.curSpec]
	ng := len(b.groups)
	n := int64((len(sp.bounds) - 1) * ng)
	var pk []bool
	if b.pp != nil {
		pk = b.pp.partPacked
	}
	for {
		it := b.itemNext.Add(1) - 1
		if it >= n {
			return
		}
		chunk := int(it) / ng
		g := int(it) % ng
		gm := b.groups[g] & b.curLive
		for _, pi := range sp.parts[sp.bounds[chunk]:sp.bounds[chunk+1]] {
			if pk != nil && pk[pi] {
				// Packed partitions write shared slot words, so they are
				// single-owner: the chunk's group-0 item evaluates every
				// active lane at once (even when group 0 itself has no live
				// lanes) and the other group items skip the partition.
				if g == 0 {
					if em := b.emBuf[pi]; em != 0 {
						b.evalPartBatch(c, pi, em, false)
					}
				}
				continue
			}
			if gm == 0 {
				continue
			}
			if em := b.emBuf[pi] & gm; em != 0 {
				b.evalPartBatch(c, pi, em, false)
			}
		}
	}
}

// runItemsSafe wraps runItems with panic recovery so a failing
// (partition, lane-group) item never unwinds past the barrier: the
// worker records the panic, arrives normally, and the dispatcher
// degrades after the completion wait.
func (b *BatchCCSS) runItemsSafe(wid int) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			buf = buf[:runtime.Stack(buf, false)]
			b.wPanic[wid] = &WorkerPanicError{
				Worker:    wid,
				Level:     int(b.curSpec),
				Partition: b.ctx[wid].cur,
				Value:     r,
				Stack:     buf,
			}
		}
	}()
	if fp := b.failpoint; fp != nil {
		fp(wid)
	}
	b.runItems(wid)
}

// recoverSpec handles a recovered worker panic during a pooled spec:
// degrade to single-threaded evaluation, discard the buffered side
// effects (a panicking worker may have left value-table rows
// half-written, which poisons the old-value change detection), roll
// back the in-place register updates (elided regs are the one
// non-idempotent partition effect — re-evaluating a partition that
// already ran would advance them a second time), flag every partition
// for every live lane, and rerun the whole spec inline with the full
// live mask. With the rollback, partition evaluation is a pure
// function of its inputs per (partition, lane), so already-completed
// items recompute identical rows; with every consumer flagged, no
// wake can be missed. The degraded flag keeps all later specs on the
// inline path until Reset.
func (b *BatchCCSS) recoverSpec(sp *batchSpec, live simrt.LaneMask, pe error) {
	b.degraded = true
	b.lastPanic = pe
	b.workerPanics++
	for _, c := range b.ctx {
		c.wakes = c.wakes[:0]
		c.regs = c.regs[:0]
	}
	if sp.elSnap != nil {
		pos := 0
		for _, o := range sp.elided {
			n := int(o.words()) * b.L
			copy(b.bt[int(o.off)*b.L:int(o.off)*b.L+n], sp.elSnap[pos:pos+n])
			pos += n
			// A packed elided-register slot may have advanced some lanes
			// (maskedDst) before the panic; re-transpose it from the rolled-
			// back row so the inline re-run computes from pre-spec state.
			if b.pp != nil {
				if s := b.pp.slotOf[o.off]; s >= 0 {
					row := b.bt[int(o.off)*b.L : int(o.off)*b.L+b.L]
					var w uint64
					for l, x := range row {
						w |= (x & 1) << uint(l)
					}
					b.pt[s] = w
				}
			}
		}
	}
	b.wakeAllLanes()
	for _, pi := range sp.parts {
		b.pmask[pi] = 0
		b.evalPartBatch(b.ctx[0], pi, live, true)
	}
}

// wakeAllLanes flags every partition and level spec for every live
// lane and invalidates the input history so the next scan re-seeds it.
func (b *BatchCCSS) wakeAllLanes() {
	for i := range b.pmask {
		b.pmask[i] |= b.live
	}
	for i := range b.specMask {
		b.specMask[i] |= b.live
	}
	b.pokedMask |= b.live
	for i := range b.prevIn {
		b.prevIn[i] = ^uint64(0)
	}
}

func (b *BatchCCSS) startBatchPool() {
	b.started = true
	for w := 1; w < b.workers; w++ {
		go b.batchWorkerLoop(w)
	}
}

func (b *BatchCCSS) batchWorkerLoop(wid int) {
	var epoch uint64
	for {
		epoch++
		b.bar.await(wid-1, epoch)
		if b.quit.Load() {
			return
		}
		b.runItemsSafe(wid)
		b.bar.arrive()
	}
}
