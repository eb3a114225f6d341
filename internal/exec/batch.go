// The lane engine: the one implementation of the §3 firing rule. Every run
// plans and applies its firings here; a scalar run is the one-lane case.
// One compiled graph carries B independent input streams, arc state
// widened to B token lanes (the ROADMAP's throughput analogue of §9's
// delay-for-rate interleaving — independent iterations share one mapped
// graph so interpretation cost is amortized).
//
// Layout is structure-of-arrays, lane-minor: arc slot state lives at index
// arcID*B+lane, source positions and firing counters at nodeID*B+lane, so
// one cell's B lanes are contiguous. The candidate set is a dense cell
// bitset paired with a per-cell 64-bit lane mask (hence the MaxBatch = 64
// lane limit): a (cell, lane) pair is re-planned only when one of that
// lane's input arcs fills or output arcs drains.
//
// Amortization is what makes batching pay: cells whose plan shape is
// lane-invariant (sources, sinks, and ordinary operators with ungated
// destinations — the bulk of any array kernel) are planned once per cycle
// for all pending lanes and commit ONE firing record carrying a lane
// mask, so instruction decode, candidate-walk, arena, and wakeup
// bookkeeping are paid per cell instead of per stream; only the
// lane-varying residue (operand presence bits, token moves, ApplyOp)
// costs per lane. Cells whose consume/produce arc sets depend on token
// values (merge selection, gates, gated destinations, control generators)
// fall back to exact per-lane records (planLane, which is also the stall
// classifier).
//
// Lanes are mutually independent — a lane's firing decisions read only
// that lane's slots — so each lane's execution is exactly a one-lane run
// of that lane's streams, advanced on a shared cycle counter. Lane 0 of a
// batched run is byte-identical to an unbatched run (outputs, arrival
// cycles, firings, stall diagnostics, trace event stream); differential
// tests against the sequential oracle kept in oracle_test.go and the CI
// sweep pin this. Lane independence is also why Workers shards a batched
// run by contiguous lane ranges: the workers share no mutable state (their
// lane slots interleave but never alias) and need no barriers, so
// determinism for any worker count holds by construction. An unbatched
// run with Workers > 1 instead splits the cells among one-lane workers
// (parallel.go).
package exec

import (
	"fmt"
	"math/bits"
	"sync"

	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// MaxBatch is the largest lane count a batched Run supports: the candidate
// set keeps one 64-bit lane mask per cell.
const MaxBatch = 64

// LaneResult is one lane's view of a batched run. Its fields mean exactly
// what the same-named Result fields mean for an unbatched run of that
// lane's input streams.
type LaneResult struct {
	Cycles   int
	Firings  []int
	Outputs  map[string][]value.Value
	Arrivals map[string][]Arrival
	Clean    bool
	Canceled bool
	Stalled  []string
}

// Lane returns lane l's view of a batched result in the unbatched Result
// shape, so lane consumers (II measurement, Describe, the service layer)
// reuse every helper unchanged. On an unbatched result Lane(0) is the
// result itself; out-of-range lanes return nil.
func (r *Result) Lane(l int) *Result {
	if r.Batch <= 1 {
		if l == 0 {
			return r
		}
		return nil
	}
	if l < 0 || l >= len(r.Lanes) {
		return nil
	}
	lr := r.Lanes[l]
	return &Result{
		Cycles:   lr.Cycles,
		Firings:  lr.Firings,
		Outputs:  lr.Outputs,
		Arrivals: lr.Arrivals,
		Clean:    lr.Clean,
		Canceled: lr.Canceled,
		Stalled:  lr.Stalled,
		Graph:    r.Graph,
	}
}

// bShape classifies how a cell is planned.
type bShape uint8

const (
	bShapeSlow   bShape = iota // per-lane exact planning (merge, gates, ctlgen, gated outs)
	bShapeSource               // stream source, ungated destinations
	bShapeSink                 // arc-fed sink
	bShapeApply                // ordinary operator, ungated destinations
)

// bOut is one decoded destination arc: the arc ID and the gating operand
// port (-1 when unconditional).
type bOut struct {
	aid  int32
	gate int32
}

// bInst is the flat decoded form of one instruction cell, derived once by
// Prepare so the per-cycle plan never chases graph.Node pointers. Its
// slices are carved from tables the Prepared allocates once.
type bInst struct {
	node  *graph.Node
	op    graph.Op
	shape bShape
	sink  int32 // dense sink index (sinks only; -1 otherwise)
	src   int32 // dense source index (sources only; -1 otherwise)
	// ins holds each operand port's arc ID, or for a literal port -1
	// minus the literal's index in Prepared.lits (see Prepared.lit).
	ins  []int32
	cins []int32 // the arc-fed entries of ins, in port order
	outs []bOut
}

// laneState is one lane's run bookkeeping.
type laneState struct {
	cycles   int
	done     bool
	canceled bool
	maxed    bool
	outCap   int // the lane's longest source stream: the sink buffer size hint
}

// bsim is one run's lane-widened machine state, shared by all workers.
// Lane-range workers touch only their own lanes' interleaved slots and
// cell-shard workers only the slots the firing rule gives them (see
// parallel.go), so no field here needs synchronization.
type bsim struct {
	Prepared // a copy, so the hot loops reach the program in one load
	B        int

	streams [][]value.Value // bound source stream, srcIdx*B+lane

	has    []bool        // token presence, arcID*B+lane
	val    []value.Value // token value, arcID*B+lane
	srcPos []int32       // next stream index, nodeID*B+lane
	frns   []int         // firing counts, nodeID*B+lane

	sinkOuts [][]value.Value // received stream, sinkIdx*B+lane
	// sinkCycs holds arrival cycles parallel to sinkOuts; the hot sink
	// loop appends 8 bytes per token and assemble zips the two into the
	// result's []Arrival once, instead of copying every value twice.
	sinkCycs [][]int64

	lanes []laneState

	tr       trace.Tracer
	trc      func(int, *graph.Node, value.Value)
	prog     *trace.Progress
	laneCtrs []*trace.LaneCounters

	maxCycles int
}

// newBsim allocates one run's state over the decoded program and binds its
// source streams (see Options.Inputs and Options.LaneInputs).
func newBsim(p *Prepared, opt Options, maxCycles, B int) (*bsim, error) {
	if B > MaxBatch {
		return nil, fmt.Errorf("exec: Batch %d exceeds the %d-lane limit", B, MaxBatch)
	}
	laneInputs := opt.LaneInputs
	if B == 1 {
		laneInputs = nil // lane 0 always runs the base streams
	}
	if len(laneInputs) > B {
		return nil, fmt.Errorf("exec: %d lane input sets for %d lanes", len(laneInputs), B)
	}
	for name := range opt.Inputs {
		if !p.srcLabels[name] {
			return nil, fmt.Errorf("exec: input %q names no source cell", name)
		}
	}
	for l, li := range laneInputs {
		for name := range li {
			if !p.srcLabels[name] {
				return nil, fmt.Errorf("exec: lane %d input %q names no source cell", l, name)
			}
		}
	}
	nn, na := p.g.NumNodes(), p.g.NumArcs()
	s := &bsim{
		Prepared: *p, B: B,
		streams:  make([][]value.Value, len(p.sources)*B),
		has:      make([]bool, na*B),
		val:      make([]value.Value, na*B),
		srcPos:   make([]int32, nn*B),
		frns:     make([]int, nn*B),
		sinkOuts: make([][]value.Value, len(p.sinkLabels)*B),
		sinkCycs: make([][]int64, len(p.sinkLabels)*B),
		lanes:    make([]laneState, B),

		tr: opt.Tracer, trc: opt.Trace, prog: opt.Progress,
		maxCycles: maxCycles,
	}
	for k, id := range p.sources {
		n := p.g.Node(id)
		base := n.Stream
		if sv, ok := opt.Inputs[n.Label]; ok {
			base = sv
		}
		for l := 0; l < B; l++ {
			stream := base
			if l > 0 && l < len(laneInputs) {
				if sv, ok := laneInputs[l][n.Label]; ok {
					stream = sv
				}
			}
			s.streams[k*B+l] = stream
			s.lanes[l].outCap = max(s.lanes[l].outCap, len(stream))
		}
	}
	for _, a := range p.g.Arcs() {
		if a.Init != nil {
			for l := 0; l < B; l++ {
				s.has[a.ID*B+l] = true
				s.val[a.ID*B+l] = *a.Init
			}
		}
	}
	if s.tr != nil {
		names := make([]string, nn)
		for _, n := range p.g.Nodes() {
			names[n.ID] = n.Name()
		}
		s.tr.Start(trace.Meta{Cells: names})
	}
	if s.prog != nil && B > 1 {
		s.laneCtrs = s.prog.InitLanes(B)
	}
	return s, nil
}

// runLanes runs the lanes on min(Workers, B) lane-range workers (one
// worker at B = 1).
func (s *bsim) runLanes(opt Options) (*Result, error) {
	B := s.B
	w := min(max(opt.Workers, 1), B)
	workers := make([]*bworker, w)
	per, extra := B/w, B%w
	lo := 0
	for i := range workers {
		n := per
		if i < extra {
			n++
		}
		workers[i] = newBworker(s, opt, lo, lo+n, i == 0, nil)
		lo += n
	}
	if w == 1 {
		workers[0].run()
	} else {
		var wg sync.WaitGroup
		for _, bw := range workers {
			wg.Add(1)
			go func(bw *bworker) {
				defer wg.Done()
				bw.run()
			}(bw)
		}
		wg.Wait()
	}
	return s.assemble(opt)
}

// sinkAppend records value v arriving at sink k in lane l. A slot's first
// arrival sizes its buffers for the lane's longest source stream, so
// steady-state appends never reallocate.
func (s *bsim) sinkAppend(k, l int, v value.Value, cycle int) {
	i := k*s.B + l
	if s.sinkOuts[i] == nil {
		if c := s.lanes[l].outCap; c > 0 {
			s.sinkOuts[i] = make([]value.Value, 0, c)
			s.sinkCycs[i] = make([]int64, 0, c)
		}
	}
	s.sinkOuts[i] = append(s.sinkOuts[i], v)
	s.sinkCycs[i] = append(s.sinkCycs[i], int64(cycle))
}

// bfiring is one firing record: a cell plus the mask of lanes firing it
// this cycle. The consume and produce arc-ID runs live in the owning
// worker's arena as [c0:c1) and [p0:p1); they are shared by every lane in
// fire (fast shapes) or belong to a single lane (slow shapes, where fire
// has one bit). Output values live lane-indexed at outVals[v0+lane].
type bfiring struct {
	inst           int32
	fire           uint64 // lanes firing
	prod           uint64 // lanes producing a result (gates may discard)
	c0, c1, p0, p1 int32
	v0             int32
	srcArc         int32 // >= 0: lane values come from this arc's slots, not outVals
	advance        bool
	sink           bool
	// inPlace: the fill phase computed results directly into the single
	// output arc's value slots; apply only raises the has bits.
	inPlace bool
}

// bworker advances the contiguous lane range [l0, l1) over its cells: every
// cell, or in a graph-sharded run the cells of its shard. The worker
// owning lane 0 of an unsharded run (traced) additionally drives tracing
// and the progress cycle counter. Workers share the bsim's flat state but
// write only their own slots.
type bworker struct {
	s      *bsim
	l0, l1 int
	all    uint64 // laneBits(), cached for the dense-loop check
	traced bool

	cand, next bitset   // cells with a nonzero lane mask
	mask       []uint64 // per-cell lane mask (absolute lane bits)

	plans   []bfiring
	arcIDs  []int32
	outVals []value.Value
	vals    []value.Value

	done     <-chan struct{}
	canceled bool
}

// newBworker seeds a worker with its cells (own, or every cell when own is
// nil) pending in all its lanes. The plan arenas start at the size a
// one-lane cycle can fill — one record per cell, each arc consumed and
// produced at most once — so steady-state runs never grow them.
func newBworker(s *bsim, opt Options, l0, l1 int, traced bool, own []graph.NodeID) *bworker {
	nn := s.g.NumNodes()
	cells := nn
	if own != nil {
		cells = len(own)
	}
	words := (nn + 63) / 64
	sets := make(bitset, 2*words) // cand and next, one allocation
	w := &bworker{
		s: s, l0: l0, l1: l1, traced: traced,
		cand:    sets[:words:words],
		next:    sets[words:],
		mask:    make([]uint64, nn),
		plans:   make([]bfiring, 0, cells),
		arcIDs:  make([]int32, 0, 2*s.g.NumArcs()),
		outVals: make([]value.Value, 0, cells*s.B),
	}
	if opt.Ctx != nil {
		w.done = opt.Ctx.Done()
	}
	w.all = w.laneBits()
	if own == nil {
		for i := range s.insts {
			w.cand.set(i)
			w.mask[i] = w.all
		}
	}
	for _, id := range own {
		w.cand.set(int(id))
		w.mask[id] = w.all
	}
	return w
}

// laneBits returns the mask with one bit per lane in [l0, l1).
func (w *bworker) laneBits() uint64 {
	n := w.l1 - w.l0
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1)<<uint(n) - 1) << uint(w.l0)
}

// run is the worker's cycle loop. A lane quiesces at the first cycle it
// contributes no firing (no firing means no state change, so none ever
// follow); the loop ends when no lane fires.
func (w *bworker) run() {
	s := w.s
	alive := w.laneBits()
	cycle := 0
	for ; cycle < s.maxCycles; cycle++ {
		if w.done != nil && cycle&(CancelCadence-1) == 0 {
			select {
			case <-w.done:
				w.canceled = true
			default:
			}
			if w.canceled {
				break
			}
		}
		if w.traced && s.prog != nil {
			s.prog.Cycle.Store(int64(cycle))
		}
		plans := w.collect()
		if len(plans) == 0 {
			break
		}
		var fired uint64
		for i := range plans {
			fired |= plans[i].fire
		}
		if quiet := alive &^ fired; quiet != 0 {
			for q := quiet; q != 0; q &= q - 1 {
				l := bits.TrailingZeros64(q)
				s.lanes[l].done = true
				s.lanes[l].cycles = cycle
				if s.laneCtrs != nil {
					s.laneCtrs[l].Cycles.Store(int64(cycle))
					s.laneCtrs[l].Done.Store(1)
				}
			}
			alive &= fired
		}
		if s.laneCtrs != nil {
			for a := alive; a != 0; a &= a - 1 {
				s.laneCtrs[bits.TrailingZeros64(a)].Cycles.Store(int64(cycle))
			}
		}
		// Lane-0 stalls are classified only on cycles where lane 0 fires
		// at least once: a cycle where it fires nothing ends its run.
		if w.traced && s.tr != nil && fired&1 != 0 {
			w.emitStalls(cycle, plans)
		}
		if w.traced && (s.tr != nil || s.trc != nil) {
			w.emitCycle(cycle, plans)
		}
		w.apply(cycle, plans)
		w.cand, w.next = w.next, w.cand
	}
	for l := w.l0; l < w.l1; l++ {
		ls := &s.lanes[l]
		if ls.done {
			continue
		}
		ls.done = true
		ls.cycles = cycle
		if s.laneCtrs != nil {
			s.laneCtrs[l].Cycles.Store(int64(cycle))
			s.laneCtrs[l].Done.Store(1)
		}
		switch {
		case w.canceled:
			ls.canceled = true
		case cycle >= s.maxCycles:
			ls.maxed = true
		}
	}
}

// collect walks the candidate cells in ascending order and plans every
// marked (cell, lane) pair; lane masks are consumed on read, so a cell
// leaves the set unless apply re-marks it.
func (w *bworker) collect() []bfiring {
	w.plans = w.plans[:0]
	w.arcIDs = w.arcIDs[:0]
	w.outVals = w.outVals[:0]
	for wi, word := range w.cand {
		for word != 0 {
			ci := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			w.planCell(int32(ci), w.mask[ci])
			w.mask[ci] = 0
		}
	}
	return w.plans
}

// reserveVals extends the output-value arena by one B-slot lane-indexed
// segment and returns its offset. Stale slots are never read: apply only
// touches lanes in a record's fire/prod masks.
func (w *bworker) reserveVals() int32 {
	v0 := len(w.outVals)
	need := v0 + w.s.B
	if cap(w.outVals) < need {
		grown := make([]value.Value, v0, 2*need)
		copy(grown, w.outVals)
		w.outVals = grown
	}
	w.outVals = w.outVals[:need]
	return int32(v0)
}

// planCell plans one cell for all its pending lanes: fast shapes commit a
// single mask record, slow shapes fall back to exact per-lane planning.
func (w *bworker) planCell(ci int32, lanes uint64) {
	s := w.s
	B := s.B
	inst := &s.insts[ci]
	switch inst.shape {
	case bShapeSlow:
		for ; lanes != 0; lanes &= lanes - 1 {
			w.planLane(ci, bits.TrailingZeros64(lanes))
		}
		return

	case bShapeSource:
		fire := uint64(0)
		base := int(ci) * B
		streams := s.streams[int(inst.src)*B : int(inst.src+1)*B]
		for m := lanes; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if int(s.srcPos[base+l]) < len(streams[l]) {
				fire |= 1 << uint(l)
			}
		}
		fire = w.destFree(inst, fire)
		if fire == 0 {
			return
		}
		f := bfiring{inst: ci, fire: fire, prod: fire, advance: true, srcArc: -1, v0: w.reserveVals()}
		f.c0 = int32(len(w.arcIDs))
		f.c1 = f.c0
		f.p0 = f.c0
		for _, o := range inst.outs {
			w.arcIDs = append(w.arcIDs, o.aid)
		}
		f.p1 = int32(len(w.arcIDs))
		for m := fire; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			w.outVals[int(f.v0)+l] = streams[l][s.srcPos[base+l]]
		}
		w.plans = append(w.plans, f)

	case bShapeSink:
		aid := inst.ins[0]
		ab := int(aid) * B
		fire := lanes
		for m := fire; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if !s.has[ab+l] {
				fire &^= 1 << uint(l)
			}
		}
		if fire == 0 {
			return
		}
		f := bfiring{inst: ci, fire: fire, sink: true, srcArc: aid}
		f.c0 = int32(len(w.arcIDs))
		w.arcIDs = append(w.arcIDs, aid)
		f.c1 = f.c0 + 1
		f.p0, f.p1 = f.c1, f.c1
		w.plans = append(w.plans, f)

	case bShapeApply:
		fire := lanes
		if len(inst.cins) == 1 && len(inst.outs) == 1 {
			// fused presence + destination check: one pass over the lanes
			inb := int(inst.cins[0]) * B
			outb := int(inst.outs[0].aid) * B
			fire = 0
			if lanes == w.all {
				// dense steady state: straight-line over the contiguous
				// range, no TrailingZeros per lane
				in := s.has[inb+w.l0 : inb+w.l1 : inb+w.l1]
				out := s.has[outb+w.l0 : outb+w.l1 : outb+w.l1]
				for l := range in {
					if in[l] && !out[l] {
						fire |= 1 << uint(w.l0+l)
					}
				}
			} else {
				for m := lanes; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if s.has[inb+l] && !s.has[outb+l] {
						fire |= 1 << uint(l)
					}
				}
			}
		} else {
			for _, aid := range inst.cins {
				ab := int(aid) * B
				for m := fire; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					if !s.has[ab+l] {
						fire &^= 1 << uint(l)
					}
				}
				if fire == 0 {
					return
				}
			}
			fire = w.destFree(inst, fire)
		}
		if fire == 0 {
			return
		}
		f := bfiring{inst: ci, fire: fire, prod: fire, srcArc: -1}
		f.c0 = int32(len(w.arcIDs))
		w.arcIDs = append(w.arcIDs, inst.cins...)
		f.c1 = int32(len(w.arcIDs))
		f.p0 = f.c1
		for _, o := range inst.outs {
			w.arcIDs = append(w.arcIDs, o.aid)
		}
		f.p1 = int32(len(w.arcIDs))
		// Results land directly in the output arc's value slots when the
		// cell has exactly one: the destination was just checked free, its
		// consumer cannot fire this cycle (no token), and only this worker
		// touches these lanes — so the staging buffer and apply-phase copy
		// are pure overhead. Fan-out cells keep the staging arena.
		var out []value.Value
		if len(inst.outs) == 1 && inst.op != graph.OpID {
			f.inPlace = true
			ob := int(inst.outs[0].aid) * B
			out = s.val[ob : ob+B : ob+B]
		}
		switch {
		case inst.op == graph.OpID && len(inst.ins) == 1 && inst.ins[0] >= 0:
			// identity cells move one token: the fill phase copies straight
			// from the (consumed but still intact) input-arc slots
			f.srcArc = inst.ins[0]
		case len(inst.ins) == 2 && inst.ins[0] >= 0 && inst.ins[1] < 0:
			// binary op, literal right operand — the dominant shape in
			// compiled array kernels; operands stay in registers instead of
			// round-tripping through the scratch operand slice
			if out == nil {
				f.v0 = w.reserveVals()
				out = w.outVals[int(f.v0) : int(f.v0)+B : int(f.v0)+B]
			}
			w.applyLitRight(inst.op, out, int(inst.ins[0])*B, s.lit(inst.ins[1]), fire)
		case len(inst.ins) == 2 && inst.ins[0] < 0 && inst.ins[1] >= 0:
			if out == nil {
				f.v0 = w.reserveVals()
				out = w.outVals[int(f.v0) : int(f.v0)+B : int(f.v0)+B]
			}
			a1 := int(inst.ins[1]) * B
			lit := s.lit(inst.ins[0])
			for m := fire; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				out[l] = applyBinary(inst.op, lit, s.val[a1+l])
			}
		case len(inst.ins) == 2 && inst.ins[0] >= 0 && inst.ins[1] >= 0:
			if out == nil {
				f.v0 = w.reserveVals()
				out = w.outVals[int(f.v0) : int(f.v0)+B : int(f.v0)+B]
			}
			w.applyArcArc(inst.op, out, int(inst.ins[0])*B, int(inst.ins[1])*B, fire)
		default:
			if out == nil {
				f.v0 = w.reserveVals()
				out = w.outVals[int(f.v0) : int(f.v0)+B : int(f.v0)+B]
			}
			if cap(w.vals) < len(inst.ins) {
				w.vals = make([]value.Value, len(inst.ins))
			}
			vals := w.vals[:len(inst.ins)]
			for m := fire; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				for p, aid := range inst.ins {
					if aid >= 0 {
						vals[p] = s.val[int(aid)*B+l]
					} else {
						vals[p] = s.lit(aid)
					}
				}
				out[l] = ApplyOp(inst.op, vals)
			}
		}
		w.plans = append(w.plans, f)
	}
}

// applyLitRight fills the output slots of a binary cell whose right
// operand is a literal. The op dispatch hoists out of the lane loop, and
// when every lane of the worker fires (the steady state of a saturated
// pipeline) the loop runs dense over the contiguous lane range so the
// inlined all-Real value fast paths compile to straight-line code.
func (w *bworker) applyLitRight(op graph.Op, dst []value.Value, a0 int, lit value.Value, fire uint64) {
	s := w.s
	if fire == w.all {
		out := dst[w.l0:w.l1]
		in := s.val[a0+w.l0 : a0+w.l1 : a0+w.l1]
		switch op {
		case graph.OpAdd:
			for l := range out {
				out[l] = value.Add(in[l], lit)
			}
		case graph.OpSub:
			for l := range out {
				out[l] = value.Sub(in[l], lit)
			}
		case graph.OpMul:
			for l := range out {
				out[l] = value.Mul(in[l], lit)
			}
		default:
			for l := range out {
				out[l] = applyBinary(op, in[l], lit)
			}
		}
		return
	}
	for m := fire; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		dst[l] = applyBinary(op, s.val[a0+l], lit)
	}
}

// applyArcArc is applyLitRight for a binary cell with both operands on
// arcs.
func (w *bworker) applyArcArc(op graph.Op, dst []value.Value, a0, a1 int, fire uint64) {
	s := w.s
	if fire == w.all {
		out := dst[w.l0:w.l1]
		in0 := s.val[a0+w.l0 : a0+w.l1 : a0+w.l1]
		in1 := s.val[a1+w.l0 : a1+w.l1 : a1+w.l1]
		switch op {
		case graph.OpAdd:
			for l := range out {
				out[l] = value.Add(in0[l], in1[l])
			}
		case graph.OpSub:
			for l := range out {
				out[l] = value.Sub(in0[l], in1[l])
			}
		case graph.OpMul:
			for l := range out {
				out[l] = value.Mul(in0[l], in1[l])
			}
		default:
			for l := range out {
				out[l] = applyBinary(op, in0[l], in1[l])
			}
		}
		return
	}
	for m := fire; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		dst[l] = applyBinary(op, s.val[a0+l], s.val[a1+l])
	}
}

// destFree clears every lane whose destination arcs are not all empty
// (only valid for ungated-destination shapes).
func (w *bworker) destFree(inst *bInst, fire uint64) uint64 {
	B := w.s.B
	for _, o := range inst.outs {
		ab := int(o.aid) * B
		for m := fire; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if w.s.has[ab+l] {
				fire &^= 1 << uint(l)
			}
		}
		if fire == 0 {
			return 0
		}
	}
	return fire
}

// operand returns the value at port p of inst in the given lane and
// whether it is present (literals always are).
func (w *bworker) operand(inst *bInst, p, lane int) (value.Value, bool) {
	aid := inst.ins[p]
	if aid < 0 {
		return w.s.lit(aid), true
	}
	slot := int(aid)*w.s.B + lane
	if !w.s.has[slot] {
		return value.Value{}, false
	}
	return w.s.val[slot], true
}

// consumeArc appends port p's arc (if any) to the arena's consume run.
func (w *bworker) consumeArc(inst *bInst, p int) {
	if aid := inst.ins[p]; aid >= 0 {
		w.arcIDs = append(w.arcIDs, aid)
	}
}

// planLane is the firing rule for one (cell ci, lane) pair: it decides
// whether the pair can fire now and, if enabled, appends a single-lane
// firing record. Otherwise the returned reason classifies the stall (the
// stall pass probes through it).
func (w *bworker) planLane(ci int32, lane int) trace.Reason {
	s := w.s
	B := s.B
	inst := &s.insts[ci]
	var out value.Value
	var advance, produced, sink bool
	f := bfiring{inst: ci, fire: 1 << uint(lane), srcArc: -1}
	f.c0 = int32(len(w.arcIDs))

	switch inst.op {
	case graph.OpSource:
		stream := s.streams[int(inst.src)*B+lane]
		pos := int(s.srcPos[int(ci)*B+lane])
		if pos >= len(stream) {
			return trace.ReasonDone
		}
		out = stream[pos]
		advance = true
		produced = true

	case graph.OpCtlGen:
		pos := int(s.srcPos[int(ci)*B+lane])
		total := inst.node.Pattern.Len()
		if total >= 0 && pos >= total {
			return trace.ReasonDone
		}
		out = value.B(inst.node.Pattern.At(pos))
		advance = true
		produced = true

	case graph.OpSink:
		v, ok := w.operand(inst, 0, lane)
		if !ok {
			return trace.ReasonOperandWait
		}
		out = v
		sink = true
		w.consumeArc(inst, 0)

	case graph.OpMerge:
		ctl, ok := w.operand(inst, 0, lane)
		if !ok {
			return trace.ReasonOperandWait
		}
		sel := 2
		if ctl.AsBool() {
			sel = 1
		}
		v, ok := w.operand(inst, sel, lane)
		if !ok {
			return trace.ReasonOperandWait
		}
		for p := 3; p < len(inst.ins); p++ {
			if _, ok := w.operand(inst, p, lane); !ok {
				return trace.ReasonOperandWait
			}
		}
		out = v
		produced = true
		w.consumeArc(inst, 0)
		w.consumeArc(inst, sel)
		for p := 3; p < len(inst.ins); p++ {
			w.consumeArc(inst, p)
		}

	case graph.OpTGate, graph.OpFGate:
		ctl, okc := w.operand(inst, 0, lane)
		data, okd := w.operand(inst, 1, lane)
		if !okc || !okd {
			return trace.ReasonOperandWait
		}
		for p := 2; p < len(inst.ins); p++ {
			if _, ok := w.operand(inst, p, lane); !ok {
				return trace.ReasonOperandWait
			}
		}
		pass := ctl.AsBool()
		if inst.op == graph.OpFGate {
			pass = !pass
		}
		out = data
		produced = pass
		for p := range inst.ins {
			w.consumeArc(inst, p)
		}

	default: // ordinary operator and identity cells
		if cap(w.vals) < len(inst.ins) {
			w.vals = make([]value.Value, len(inst.ins))
		}
		vals := w.vals[:len(inst.ins)]
		for p := range inst.ins {
			v, ok := w.operand(inst, p, lane)
			if !ok {
				return trace.ReasonOperandWait
			}
			vals[p] = v
		}
		out = ApplyOp(inst.op, vals)
		produced = true
		for p := range inst.ins {
			w.consumeArc(inst, p)
		}
	}
	f.c1 = int32(len(w.arcIDs))
	f.p0 = f.c1

	if produced {
		for _, o := range inst.outs {
			write := true
			if o.gate >= 0 {
				gv, ok := w.operand(inst, int(o.gate), lane)
				if !ok {
					return trace.ReasonOperandWait
				}
				write = gv.AsBool()
			}
			if write {
				if s.has[int(o.aid)*B+lane] {
					return trace.ReasonAckWait
				}
				w.arcIDs = append(w.arcIDs, o.aid)
			}
		}
	}
	f.p1 = int32(len(w.arcIDs))
	if produced {
		f.prod = f.fire
	}
	f.advance = advance
	if sink {
		// slow-path sinks still reference the consumed arc for values; a
		// literal-fed sink has no arc and keeps the outVals copy.
		if aid := inst.ins[0]; aid >= 0 {
			f.sink = true
			f.srcArc = aid
			w.plans = append(w.plans, f)
			return trace.ReasonNone
		}
	}
	f.sink = sink
	f.v0 = w.reserveVals()
	w.outVals[int(f.v0)+lane] = out
	w.plans = append(w.plans, f)
	return trace.ReasonNone
}

// probe classifies (cell ci, lane 0) without committing anything to the
// plan arenas (the stall passes run between collect and apply).
func (w *bworker) probe(ci int32) trace.Reason {
	nPlans, nArcs, nVals := len(w.plans), len(w.arcIDs), len(w.outVals)
	why := w.planLane(ci, 0)
	w.plans = w.plans[:nPlans]
	w.arcIDs = w.arcIDs[:nArcs]
	w.outVals = w.outVals[:nVals]
	return why
}

// emitStalls emits one stall event for every cell that waits in lane 0
// this cycle, in cell order.
func (w *bworker) emitStalls(cycle int, plans []bfiring) {
	s := w.s
	firing := make(map[int32]bool, len(plans))
	for i := range plans {
		if plans[i].fire&1 != 0 {
			firing[plans[i].inst] = true
		}
	}
	for _, n := range s.g.Nodes() {
		if firing[int32(n.ID)] {
			continue
		}
		if why := w.probe(int32(n.ID)); why == trace.ReasonOperandWait || why == trace.ReasonAckWait {
			s.tr.Emit(trace.Event{
				Cycle: int64(cycle), Kind: trace.KindStall,
				Cell: int32(n.ID), Port: -1, Unit: -1, Src: -1, Dst: -1, Reason: why,
			})
		}
	}
}

// emitCycle emits the cycle's lane-0 firing-side trace events in cell
// order: per record, its firing, acknowledge events and debug callback;
// then every record's token arrivals. Records are collected cell-ascending
// (with slow-shape lanes inner), so the lane-0 subsequence is in cell
// order for any lane count. It runs before apply, while every record's
// result is still readable.
func (w *bworker) emitCycle(cycle int, plans []bfiring) {
	for i := range plans {
		if plans[i].fire&1 != 0 {
			w.emitFiring(cycle, &plans[i])
		}
	}
	if w.s.tr != nil {
		for i := range plans {
			w.emitTokens(cycle, &plans[i])
		}
	}
}

// emitFiring emits record f's lane-0 firing and acknowledge events and
// calls the debug callback with its lane-0 result.
func (w *bworker) emitFiring(cycle int, f *bfiring) {
	s := w.s
	if tr := s.tr; tr != nil {
		tr.Emit(trace.Event{
			Cycle: int64(cycle), Kind: trace.KindFiring,
			Cell: f.inst, Port: -1, Unit: -1, Src: -1, Dst: -1,
		})
		// draining an arc is the moment the acknowledge packet would
		// reach its producer
		for _, aid := range w.arcIDs[f.c0:f.c1] {
			tr.Emit(trace.Event{
				Cycle: int64(cycle), Kind: trace.KindAck,
				Cell: s.arcFrom[aid], Port: -1, Unit: -1, Src: -1, Dst: -1,
			})
		}
	}
	if s.trc != nil && f.prod&1 != 0 {
		s.trc(cycle, s.insts[f.inst].node, w.result(f, 0))
	}
}

// emitTokens emits record f's lane-0 token-arrival events.
func (w *bworker) emitTokens(cycle int, f *bfiring) {
	if f.prod&1 == 0 {
		return
	}
	s := w.s
	for _, aid := range w.arcIDs[f.p0:f.p1] {
		s.tr.Emit(trace.Event{
			Cycle: int64(cycle), Kind: trace.KindToken,
			Cell: s.arcTo[aid], Port: s.arcPort[aid], Unit: -1, Src: -1, Dst: -1,
		})
	}
}

// apply commits the cycle's firing records and marks, in the next
// candidate set, the (cell, lane) pairs whose enabledness may have changed;
// the caller swaps the sets. All consumes land before any produce, so a
// record's inputs stay readable while the cycle's results are written.
func (w *bworker) apply(cycle int, plans []bfiring) {
	w.next.reset()
	s := w.s
	B := s.B
	for i := range plans {
		f := &plans[i]
		ci := int(f.inst)
		base := ci * B
		fire := f.fire
		w.next.set(ci)
		w.mask[ci] |= fire // a worker always owns the cells it fires
		dense := fire == w.all
		if dense {
			for l := w.l0; l < w.l1; l++ {
				s.frns[base+l]++
			}
		} else {
			for m := fire; m != 0; m &= m - 1 {
				s.frns[base+bits.TrailingZeros64(m)]++
			}
		}
		for _, aid := range w.arcIDs[f.c0:f.c1] {
			ab := int(aid) * B
			if dense {
				for l := w.l0; l < w.l1; l++ {
					s.has[ab+l] = false
				}
			} else {
				for m := fire; m != 0; m &= m - 1 {
					s.has[ab+bits.TrailingZeros64(m)] = false
				}
			}
			// the producer of a drained arc may now be enabled
			w.wake(int(s.arcFrom[aid]), fire)
		}
		if f.advance {
			for m := fire; m != 0; m &= m - 1 {
				s.srcPos[base+bits.TrailingZeros64(m)]++
			}
		}
		if f.sink {
			k := int(s.insts[ci].sink)
			vb := int(f.srcArc) * B
			if dense && s.laneCtrs == nil && f.srcArc >= 0 {
				for l := w.l0; l < w.l1; l++ {
					s.sinkAppend(k, l, s.val[vb+l], cycle)
				}
			} else {
				for m := fire; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					s.sinkAppend(k, l, w.result(f, l), cycle)
					if s.laneCtrs != nil {
						s.laneCtrs[l].Arrivals.Add(1)
					}
				}
			}
			if s.prog != nil {
				s.prog.Arrivals.Add(int64(bits.OnesCount64(fire)))
			}
		}
	}
	for i := range plans {
		f := &plans[i]
		prod := f.prod
		if prod == 0 {
			continue
		}
		dense := prod == w.all
		for _, aid := range w.arcIDs[f.p0:f.p1] {
			ab := int(aid) * B
			switch {
			case f.inPlace:
				// values are already in the arc slots; just raise has
				if dense {
					for l := w.l0; l < w.l1; l++ {
						s.has[ab+l] = true
					}
				} else {
					for m := prod; m != 0; m &= m - 1 {
						s.has[ab+bits.TrailingZeros64(m)] = true
					}
				}
			case dense && f.srcArc >= 0:
				vb := int(f.srcArc) * B
				for l := w.l0; l < w.l1; l++ {
					s.val[ab+l] = s.val[vb+l]
					s.has[ab+l] = true
				}
			case dense:
				v0 := int(f.v0)
				for l := w.l0; l < w.l1; l++ {
					s.val[ab+l] = w.outVals[v0+l]
					s.has[ab+l] = true
				}
			default:
				for m := prod; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					s.val[ab+l] = w.result(f, l)
					s.has[ab+l] = true
				}
			}
			w.wake(int(s.arcTo[aid]), prod)
		}
	}
}

// wake marks cell ci pending in lanes for the next cycle. (A shard worker
// moves the wake-ups of cells other shards own onto its rings after
// apply; see shardWorker.route.)
func (w *bworker) wake(ci int, lanes uint64) {
	w.next.set(ci)
	w.mask[ci] |= lanes
}

// result returns the value record f produces in lane l. It reads the slot
// the record's values live in, so it is valid from the end of collect until
// the next collect.
func (w *bworker) result(f *bfiring, l int) value.Value {
	B := w.s.B
	switch {
	case f.srcArc >= 0:
		return w.s.val[int(f.srcArc)*B+l]
	case f.inPlace:
		return w.s.val[int(w.arcIDs[f.p0])*B+l]
	default:
		return w.outVals[int(f.v0)+l]
	}
}

// drainLane reports whether lane l drained completely and lists
// diagnostics for any leftover state: unsent stream or control values and
// stranded tokens.
func (s *bsim) drainLane(l int) (bool, []string) {
	var stalled []string
	B := s.B
	for _, n := range s.g.Nodes() {
		switch n.Op {
		case graph.OpSource:
			stream := s.streams[int(s.insts[n.ID].src)*B+l]
			if pos := int(s.srcPos[int(n.ID)*B+l]); pos < len(stream) {
				stalled = append(stalled, fmt.Sprintf("%s: %d of %d stream values unsent",
					n.Name(), len(stream)-pos, len(stream)))
			}
		case graph.OpCtlGen:
			if t := n.Pattern.Len(); t >= 0 && int(s.srcPos[int(n.ID)*B+l]) < t {
				stalled = append(stalled, fmt.Sprintf("%s: %d of %d control values unsent",
					n.Name(), t-int(s.srcPos[int(n.ID)*B+l]), t))
			}
		}
	}
	for _, a := range s.g.Arcs() {
		if slot := a.ID*B + l; s.has[slot] {
			stalled = append(stalled, fmt.Sprintf("token %s stranded on arc %s -> %s port %d",
				s.val[slot], s.g.Node(a.From).Name(), s.g.Node(a.To).Name(), a.ToPort))
		}
	}
	return len(stalled) == 0, stalled
}

// assemble builds the Result: the top-level fields are lane 0's view, and
// a batched run (B > 1) also carries every lane's view in Lanes.
func (s *bsim) assemble(opt Options) (*Result, error) {
	res := &Result{Graph: s.g}
	var l0 LaneResult
	if s.B == 1 {
		l0 = s.lane(0, s.frns)
	} else {
		res.Batch = s.B
		res.Lanes = make([]LaneResult, s.B)
		nn := s.g.NumNodes()
		for l := range res.Lanes {
			frns := make([]int, nn)
			for i := range frns {
				frns[i] = s.frns[i*s.B+l]
			}
			res.Lanes[l] = s.lane(l, frns)
		}
		l0 = res.Lanes[0]
	}
	res.Cycles = l0.Cycles
	res.Firings = l0.Firings
	res.Outputs = l0.Outputs
	res.Arrivals = l0.Arrivals
	res.Clean = l0.Clean
	res.Stalled = l0.Stalled
	// Decorate canceled lane views after the top-level copy so the
	// top-level diagnostic is prepended exactly once (by markCanceled).
	anyCanceled, anyMaxed := false, false
	cancelCycle := 0
	for l := range s.lanes {
		ls := &s.lanes[l]
		anyMaxed = anyMaxed || ls.maxed
		if !ls.canceled {
			continue
		}
		anyCanceled = true
		cancelCycle = max(cancelCycle, ls.cycles)
		if res.Lanes != nil {
			lr := &res.Lanes[l]
			lr.Clean = false
			lr.Stalled = append([]string{fmt.Sprintf(
				"canceled: run stopped by context at cycle %d before quiescence", lr.Cycles)},
				lr.Stalled...)
		}
	}
	if anyCanceled {
		if s.lanes[0].canceled {
			cancelCycle = s.lanes[0].cycles
		}
		return markCanceled(res, cancelCycle, opt.Ctx)
	}
	if anyMaxed {
		return res, fmt.Errorf("exec: no quiescence after %d cycles (livelock or MaxCycles too small)", s.maxCycles)
	}
	return res, nil
}

// lane builds lane l's view over the given firing counts.
func (s *bsim) lane(l int, frns []int) LaneResult {
	ls := &s.lanes[l]
	lr := LaneResult{
		Cycles:   ls.cycles,
		Firings:  frns,
		Outputs:  make(map[string][]value.Value, len(s.sinkLabels)),
		Arrivals: make(map[string][]Arrival, len(s.sinkLabels)),
		Canceled: ls.canceled,
	}
	for k, label := range s.sinkLabels {
		outs := s.sinkOuts[k*s.B+l]
		cycs := s.sinkCycs[k*s.B+l]
		var arrs []Arrival
		if outs != nil { // nil stays nil: a silent sink has no arrivals
			arrs = make([]Arrival, len(outs))
			for i := range outs {
				arrs[i] = Arrival{Cycle: int(cycs[i]), Val: outs[i]}
			}
		}
		lr.Outputs[label] = outs
		lr.Arrivals[label] = arrs
	}
	lr.Clean, lr.Stalled = s.drainLane(l)
	return lr
}
