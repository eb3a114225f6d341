// Graph-sharded driver: an unbatched run with Workers > 1.
//
// The graph is partitioned into P load-balanced shards (internal/
// partition); one goroutine owns each shard and runs a one-lane bworker
// whose candidate set holds only that shard's cells, while token state,
// stream positions, and firing counters stay in the run's shared bsim
// slices, written at disjoint indices only. Each simulated instruction
// time runs in three phases:
//
//	A  every worker plans its own candidate cells against the frozen
//	   start-of-cycle token state and publishes its plan count;
//	   — barrier —
//	B  every worker applies its own plans: clears consumed arcs, fills
//	   produced arcs, appends sink arrivals. Enabledness wake-ups for
//	   cells in other shards are then moved onto bounded SPSC rings;
//	   — barrier —
//	C  every worker drains its inbound rings into its next candidate
//	   set. No barrier is needed before the next phase A: C touches only
//	   worker-local state and rings already quiesced by the B barrier.
//
// Determinism rests on a property of the firing discipline: an arc
// carrying a token at the start of a cycle can only be cleared this cycle
// (its producer is ack-blocked), and an empty arc can only be filled (its
// consumer lacks the operand) — so each arc slot is written by at most
// one worker per cycle, and the cycle's outcome is a pure function of the
// start-of-cycle state regardless of worker interleaving. Outputs,
// arrivals, firings, and stall diagnostics are byte-identical to a
// one-worker run for any P; when tracing is attached, worker 0 replays the
// cycle's events from the shards' firing records between phases A and B,
// in exactly the one-worker emission order.
package exec

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"staticpipe/internal/graph"
	"staticpipe/internal/partition"
	"staticpipe/internal/trace"
)

// padCount is a per-shard counter padded to a cache line so the workers'
// once-per-cycle plan-count stores do not false-share.
type padCount struct {
	v int64
	_ [56]byte
}

// shardSim is the state shared by all workers of one sharded run.
type shardSim struct {
	s         *bsim
	opt       Options
	asn       *partition.Assignment
	workers   []*shardWorker
	barrier   *partition.Barrier
	planCount []padCount

	// Trace-mode replay state: each entry is written only by the cell's
	// owner in phase A and read by worker 0 between the A and B barriers.
	traced      bool
	planned     []int32 // cell ID -> plan index in its owner's arena, -1 when stalled
	stallReason []trace.Reason

	// Filled in by worker 0 at exit; all workers leave at the same cycle.
	endCycle int
	quiesced bool

	// Cancellation: worker 0 polls opt.Ctx at the CancelCadence and sets
	// cancelReq before the phase-A barrier; every worker reads it after
	// that barrier (the barrier provides the happens-before edge), so all
	// workers leave together at the same cycle.
	done      <-chan struct{}
	cancelReq bool
	canceled  bool
}

// shardWorker is one goroutine's view of the run.
type shardWorker struct {
	id       int
	ps       *shardSim
	bw       *bworker // one lane over this shard's cells
	nodes    []graph.NodeID
	foreign  bitset            // the cells other shards own
	outRings []*partition.Ring // by destination shard; nil when no arc crosses
	inRings  []*partition.Ring // by source shard
	stat     partition.ShardStat
	live     *trace.ShardCounters
}

// runSharded runs the one-lane state s on nw graph shards.
func runSharded(s *bsim, opt Options, nw int) (*Result, error) {
	g := s.g
	asn := partition.Partition(g, nw)
	nw = asn.P
	ps := &shardSim{
		s:         s,
		opt:       opt,
		asn:       asn,
		barrier:   partition.NewBarrier(nw),
		planCount: make([]padCount, nw),
		traced:    opt.Tracer != nil || opt.Trace != nil,
	}
	if opt.Ctx != nil {
		ps.done = opt.Ctx.Done()
	}
	if ps.traced {
		ps.planned = make([]int32, g.NumNodes())
		ps.stallReason = make([]trace.Reason, g.NumNodes())
	}

	// Ring capacity for the (src, dst) pair is the number of arcs joining
	// the two shards in either direction: a cross arc contributes at most
	// one notification per cycle (a fill wake-up to the consumer's shard
	// XOR a drain wake-up to the producer's), and the consumer drains its
	// rings every cycle, so a ring sized this way can never fill.
	pairArcs := make([][]int, nw)
	for i := range pairArcs {
		pairArcs[i] = make([]int, nw)
	}
	for _, a := range g.Arcs() {
		sf, st := asn.Shard[a.From], asn.Shard[a.To]
		if sf != st {
			pairArcs[sf][st]++
			pairArcs[st][sf]++
		}
	}

	var shardCounters []*trace.ShardCounters
	if opt.Progress != nil {
		shardCounters = opt.Progress.InitShards(nw)
	}
	ps.workers = make([]*shardWorker, nw)
	for i := range ps.workers {
		w := &shardWorker{
			id:       i,
			ps:       ps,
			inRings:  make([]*partition.Ring, nw),
			outRings: make([]*partition.Ring, nw),
		}
		if shardCounters != nil {
			w.live = shardCounters[i]
		}
		ps.workers[i] = w
	}
	for _, n := range g.Nodes() {
		w := ps.workers[asn.Shard[n.ID]]
		w.nodes = append(w.nodes, n.ID)
	}
	for _, w := range ps.workers {
		w.bw = newBworker(s, opt, 0, 1, false, w.nodes)
		w.foreign = newBitset(g.NumNodes())
		for _, n := range g.Nodes() {
			if asn.Shard[n.ID] != w.id {
				w.foreign.set(int(n.ID))
			}
		}
		w.stat.Cells = len(w.nodes)
	}
	for src := 0; src < nw; src++ {
		for dst := 0; dst < nw; dst++ {
			if src == dst || pairArcs[src][dst] == 0 {
				continue
			}
			r := partition.NewRing(pairArcs[src][dst])
			ps.workers[src].outRings[dst] = r
			ps.workers[dst].inRings[src] = r
		}
	}

	var wg sync.WaitGroup
	for _, w := range ps.workers {
		wg.Add(1)
		go func(w *shardWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	wg.Wait()

	ls := &s.lanes[0]
	ls.cycles = ps.endCycle
	ls.canceled = ps.canceled
	ls.maxed = !ps.canceled && !ps.quiesced
	res, err := s.assemble(opt)
	res.Shards = make([]partition.ShardStat, nw)
	for i, w := range ps.workers {
		res.Shards[i] = w.stat
	}
	if ls.maxed {
		res.ShardDiag = ps.diagnose()
	}
	return res, err
}

// run is one worker's cycle loop. All workers observe the same plan-count
// total each cycle, so they exit together at the same cycle number.
func (w *shardWorker) run() {
	ps := w.ps
	bw := w.bw
	wallStart := time.Now()
	defer func() { w.stat.WallNs = time.Since(wallStart).Nanoseconds() }()
	for cycle := 0; ; cycle++ {
		if cycle >= ps.s.maxCycles {
			if w.id == 0 {
				ps.endCycle = cycle
			}
			return
		}
		if w.id == 0 {
			if ps.opt.Progress != nil {
				ps.opt.Progress.Cycle.Store(int64(cycle))
			}
			if ps.done != nil && cycle&(CancelCadence-1) == 0 {
				select {
				case <-ps.done:
					ps.cancelReq = true
				default:
				}
			}
		}
		// Phase A: plan against the frozen start-of-cycle state.
		plans := bw.collect()
		if ps.traced {
			w.classify(plans)
		}
		ps.planCount[w.id].v = int64(len(plans))
		w.wait()
		if ps.cancelReq {
			if w.id == 0 {
				ps.endCycle = cycle
				ps.canceled = true
			}
			return
		}
		total := int64(0)
		for i := range ps.planCount {
			total += ps.planCount[i].v
		}
		if total == 0 {
			if w.id == 0 {
				ps.endCycle = cycle
				ps.quiesced = true
			}
			return
		}
		if ps.traced {
			if w.id == 0 {
				ps.emitCycle(cycle)
			}
			w.wait()
		}
		// Phase B: apply own plans.
		bw.apply(cycle, plans)
		w.route()
		w.stat.Firings += int64(len(plans))
		w.wait()
		// Phase C: collect cross-shard wake-ups.
		w.drainRings()
		bw.cand, bw.next = bw.next, bw.cand
		if w.live != nil {
			w.live.Cycles.Add(1)
			w.live.Firings.Store(w.stat.Firings)
			w.live.RingMsgs.Store(w.stat.RingSends)
			w.live.RingPeak.Store(w.stat.RingPeak)
		}
	}
}

func (w *shardWorker) wait() {
	ns := w.ps.barrier.Wait()
	w.stat.BarrierWait.Observe(ns)
	if w.live != nil && ns > 0 {
		w.live.BarrierWaitNs.Add(ns)
	}
}

// classify records, for every owned cell, either its plan index or its
// stall reason — the inputs worker 0 needs to replay the cycle's trace
// events in cell order.
func (w *shardWorker) classify(plans []bfiring) {
	ps := w.ps
	for _, id := range w.nodes {
		ps.planned[id] = -1
	}
	for i := range plans {
		ps.planned[plans[i].inst] = int32(i)
	}
	for _, id := range w.nodes {
		if ps.planned[id] < 0 {
			ps.stallReason[id] = w.bw.probe(int32(id))
		}
	}
}

// emitCycle replays the cycle's trace events in the exact order a
// one-worker run emits them: stalls in cell-ID order, then per firing
// (ascending cell ID) the firing event, its acknowledge events, and the
// debug callback, then all token arrivals in the same plan order.
func (ps *shardSim) emitCycle(cycle int) {
	tr := ps.s.tr
	if tr != nil {
		for ci, pi := range ps.planned {
			if pi >= 0 {
				continue
			}
			if why := ps.stallReason[ci]; why == trace.ReasonOperandWait || why == trace.ReasonAckWait {
				tr.Emit(trace.Event{
					Cycle: int64(cycle), Kind: trace.KindStall,
					Cell: int32(ci), Port: -1, Unit: -1, Src: -1, Dst: -1, Reason: why,
				})
			}
		}
	}
	for ci, pi := range ps.planned {
		if pi >= 0 {
			bw := ps.workers[ps.asn.Shard[ci]].bw
			bw.emitFiring(cycle, &bw.plans[pi])
		}
	}
	if tr != nil {
		for ci, pi := range ps.planned {
			if pi >= 0 {
				bw := ps.workers[ps.asn.Shard[ci]].bw
				bw.emitTokens(cycle, &bw.plans[pi])
			}
		}
	}
}

// route moves this cycle's wake-ups of cells other shards own out of the
// next candidate set and onto the ring to each cell's owner.
func (w *shardWorker) route() {
	bw := w.bw
	for i, f := range w.foreign {
		x := bw.next[i] & f
		if x == 0 {
			continue
		}
		bw.next[i] &^= x
		for ; x != 0; x &= x - 1 {
			ci := i<<6 + bits.TrailingZeros64(x)
			t := w.ps.asn.Shard[ci]
			if !w.outRings[t].Push(int32(ci)) {
				// Sized to the cross-arc count this cannot happen; fail
				// loudly naming the ring rather than drop a wake-up and
				// livelock.
				panic(fmt.Sprintf("exec: notification ring shard %d -> %d overflowed (cap %d)",
					w.id, t, w.outRings[t].Cap()))
			}
			w.stat.RingSends++
		}
	}
}

// drainRings moves inbound wake-ups into the next candidate set.
func (w *shardWorker) drainRings() {
	for _, r := range w.inRings {
		if r == nil {
			continue
		}
		if occ := int64(r.Len()); occ > w.stat.RingPeak {
			w.stat.RingPeak = occ
		}
		for {
			v, ok := r.Pop()
			if !ok {
				break
			}
			w.bw.wake(int(v), 1)
			w.stat.RingRecvs++
		}
	}
}

// diagnose names, per shard and per ring, where work was still pending
// when a sharded run exhausted MaxCycles — the parallel counterpart of
// the Stalled cell diagnostics, which stay engine-independent.
func (ps *shardSim) diagnose() []string {
	var d []string
	for _, w := range ps.workers {
		d = append(d, fmt.Sprintf(
			"shard %d: %d cells, %d candidate cells pending at halt, %d firings, %d cross-shard notifications sent, inbound ring peak %d",
			w.id, len(w.nodes), w.bw.cand.count(), w.stat.Firings, w.stat.RingSends, w.stat.RingPeak))
	}
	for _, w := range ps.workers {
		for src, r := range w.inRings {
			if r != nil && r.Len() > 0 {
				d = append(d, fmt.Sprintf("ring shard %d -> %d: %d undrained notifications at halt",
					src, w.id, r.Len()))
			}
		}
	}
	return d
}

// count returns the number of set bits (used by halt diagnostics only).
func (b bitset) count() int {
	n := 0
	for _, word := range b {
		n += bits.OnesCount64(word)
	}
	return n
}
