package exec

// The sequential engine the lane engine replaced, kept as a test oracle:
// sim, its planner and its run loop are the code exec shipped before the
// lane engine became the only one, unchanged except that the run loop
// takes a graph instead of a pooled Prepared. TestEngineMatchesOracle
// requires every engine shape to reproduce it exactly.

import (
	"context"
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// oracleCase is one differential input. Both the graph and the options
// are built fresh for every run: a mid-run cancel needs its own context.
type oracleCase struct {
	name  string
	build func() *graph.Graph
	opt   func() Options
}

// literalSinkGraph feeds one sink from a literal, so that sink fires every
// cycle and the run can only end at MaxCycles.
func literalSinkGraph() *graph.Graph {
	g := graph.New()
	src := g.AddSource("in", value.Reals(ramp(6)))
	g.Connect(src, g.AddSink("out"), 0)
	g.SetLiteral(g.AddSink("lit"), 0, value.R(1))
	return g
}

// oracleCases is every parallelCases graph run to completion and cut at
// MaxCycles, plus fig2, scaleGraph with and without an input override, a
// run that can only exhaust MaxCycles, and a run canceled mid-flight from
// the lane-0 debug hook.
func oracleCases() []oracleCase {
	none := func() Options { return Options{} }
	pc := parallelCases()
	names := make([]string, 0, len(pc))
	for name := range pc {
		names = append(names, name)
	}
	sort.Strings(names)
	var cs []oracleCase
	for _, name := range names {
		cs = append(cs,
			oracleCase{name, pc[name], none},
			oracleCase{name + "/partial", pc[name], func() Options { return Options{MaxCycles: 9} }})
	}
	scale := func() *graph.Graph { return scaleGraph(value.Reals(ramp(24))) }
	return append(cs,
		oracleCase{"fig2-64", func() *graph.Graph { g, _ := fig2(64); return g }, none},
		oracleCase{"scale", scale, none},
		oracleCase{"scale/inputs", scale, func() Options {
			return Options{Inputs: map[string][]value.Value{"in": value.Reals(ramp(31))}}
		}},
		oracleCase{"literal-sink", literalSinkGraph, func() Options { return Options{MaxCycles: 50} }},
		oracleCase{"cancel", func() *graph.Graph { return cancelChain(4*CancelCadence, 8) }, func() Options {
			ctx, cancel := context.WithCancel(context.Background())
			fired := 0
			return Options{Ctx: ctx, Trace: func(int, *graph.Node, value.Value) {
				if fired++; fired == 4*CancelCadence {
					cancel()
				}
			}}
		}},
	)
}

// recordedRun is one run's observable outcome, trace included.
type recordedRun struct {
	res   *Result
	err   string
	rec   recorder
	lines []string
}

func runRecorded(run func(*graph.Graph, Options) (*Result, error), c oracleCase, w, b int) *recordedRun {
	r := &recordedRun{}
	opt := c.opt()
	opt.Workers, opt.Batch, opt.Tracer = w, b, &r.rec
	hook := opt.Trace
	opt.Trace = func(cycle int, n *graph.Node, out value.Value) {
		r.lines = append(r.lines, fmt.Sprintf("%d %s %v", cycle, n.Name(), out))
		if hook != nil {
			hook(cycle, n, out)
		}
	}
	res, err := run(c.build(), opt)
	r.res = res
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// TestEngineMatchesOracle is the engine-identity contract: at every
// worker count and lane count, lane 0 of the engine reproduces the
// sequential oracle exactly — outputs, arrival cycles, firing counts,
// cycle count, drain state, stall diagnostics, error, the structured
// trace event stream and the debug-callback sequence. The cases must
// reach a clean finish, a MaxCycles cut, a mid-run cancel and stall
// events, or the comparison proves less than it claims.
func TestEngineMatchesOracle(t *testing.T) {
	var clean, maxed, canceled, stalls bool
	for _, c := range oracleCases() {
		want := checkOracleCase(t, c)
		if want == nil {
			continue
		}
		clean = clean || (want.err == "" && want.res.Clean)
		maxed = maxed || (want.err != "" && !want.res.Canceled)
		canceled = canceled || (want.res.Canceled && len(want.res.Outputs["out"]) > 0)
		for _, e := range want.rec.events {
			stalls = stalls || e.Kind == trace.KindStall
		}
	}
	if !clean || !maxed || !canceled || !stalls {
		t.Errorf("oracle cases miss a path: clean=%v maxed=%v canceled-mid-run=%v stalls=%v",
			clean, maxed, canceled, stalls)
	}
}

// CheckOracle holds one graph to the oracle at every worker and lane
// count and reports whether the oracle run stalled and finished clean.
// It is exported for the external test package, which builds compiled
// graphs (package core imports exec, so only exec_test may import it).
func CheckOracle(t *testing.T, name string, g *graph.Graph, opt Options) (stalls, clean bool) {
	t.Helper()
	want := checkOracleCase(t, oracleCase{name, func() *graph.Graph { return g }, func() Options { return opt }})
	if want == nil {
		return false, false
	}
	for _, e := range want.rec.events {
		stalls = stalls || e.Kind == trace.KindStall
	}
	return stalls, want.err == "" && want.res.Clean
}

// checkOracleCase runs c on the oracle and on the engine at W∈{1,2,4} ×
// B∈{1,4}, reports every divergence of lane 0, and returns the oracle's
// run (nil when the oracle produced no result).
func checkOracleCase(t *testing.T, c oracleCase) *recordedRun {
	t.Helper()
	want := runRecorded(runOracle, c, 0, 0)
	if want.res == nil {
		t.Errorf("%s: oracle returned no result: %s", c.name, want.err)
		return nil
	}
	for _, w := range []int{1, 2, 4} {
		for _, b := range []int{1, 4} {
			name := fmt.Sprintf("%s W=%d B=%d", c.name, w, b)
			got := runRecorded(Run, c, w, b)
			if got.res == nil {
				t.Errorf("%s: engine returned no result: %s", name, got.err)
				continue
			}
			if got.err != want.err {
				t.Errorf("%s: error %q, oracle %q", name, got.err, want.err)
			}
			requireSameResult(t, name, w, want.res, got.res)
			if got.res.Canceled != want.res.Canceled {
				t.Errorf("%s: canceled %v, oracle %v", name, got.res.Canceled, want.res.Canceled)
			}
			if b == 1 && (got.res.Batch != 0 || got.res.Lanes != nil) {
				t.Errorf("%s: unbatched run reports batch fields", name)
			}
			if !reflect.DeepEqual(got.rec.meta, want.rec.meta) {
				t.Errorf("%s: trace metadata diverges", name)
			}
			if !reflect.DeepEqual(got.rec.events, want.rec.events) {
				t.Errorf("%s: event streams diverge (%d vs %d events)",
					name, len(got.rec.events), len(want.rec.events))
			}
			if !reflect.DeepEqual(got.lines, want.lines) {
				t.Errorf("%s: debug-callback lines diverge (%d vs %d)", name, len(got.lines), len(want.lines))
			}
		}
	}
	return want
}

// sim is the mutable machine state.
type sim struct {
	g       *graph.Graph
	streams [][]value.Value // resolved source stream per node ID (see resolveStreams)
	arcHas  []bool          // token presence per arc ID
	arcVal  []value.Value   // token value per arc ID (meaningful when arcHas)
	srcPos  []int           // next stream index per node ID (sources/ctlgens)
	firings []int
	outs    map[string][]value.Value
	arrs    map[string][]Arrival
	outCap  int // preallocation hint for sink streams (max source length)
	trace   func(int, *graph.Node, value.Value)
	tr      trace.Tracer
	prog    *trace.Progress

	// candidate tracking: a cell's enabledness only changes when one of
	// its input arcs fills or one of its output arcs drains, so only those
	// cells are re-planned each cycle.
	cand     bitset
	nextCand bitset

	// per-cycle scratch, reused across cycles: the firing plans and the
	// arena their consume/produce arc-ID runs are carved from.
	plans  []firing
	arcIDs []int
	vals   []value.Value
}

// firing is a cell's planned effect, computed against the start-of-cycle
// snapshot and applied after all cells have been examined. The consume and
// produce arc-ID runs live in the sim's arcIDs arena as [c0:c1) and
// [p0:p1) index ranges (ranges stay valid across arena growth).
type firing struct {
	node     *graph.Node
	c0, c1   int32 // arcIDs[c0:c1]: arcs to clear
	p0, p1   int32 // arcIDs[p0:p1]: arcs to fill
	out      value.Value
	sink     bool
	advance  bool // sources and control generators advance their position
	produced bool // whether out is meaningful (gates may discard)
}

// runOracle runs g on the sequential engine (Options.Batch and
// Options.Workers are ignored).
func runOracle(g *graph.Graph, opt Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g = g.ExpandFIFOs()
	maxCycles := opt.MaxCycles
	if maxCycles <= 0 {
		maxCycles = DefaultMaxCycles
	}
	s := newOracleSim(g, opt)
	var err error
	if s.streams, err = resolveStreams(g, opt.Inputs, s.streams); err != nil {
		return nil, err
	}
	if s.tr != nil {
		names := make([]string, g.NumNodes())
		for _, n := range g.Nodes() {
			names[n.ID] = n.Name()
		}
		s.tr.Start(trace.Meta{Cells: names})
	}
	for _, a := range g.Arcs() {
		if a.Init != nil {
			s.arcHas[a.ID] = true
			s.arcVal[a.ID] = *a.Init
		}
	}
	for _, n := range g.Nodes() {
		s.cand.set(int(n.ID))
		switch n.Op {
		case graph.OpSink:
			if _, dup := s.outs[n.Label]; dup {
				return nil, fmt.Errorf("exec: duplicate sink label %q", n.Label)
			}
			s.outs[n.Label] = nil
			s.arrs[n.Label] = nil
		case graph.OpSource:
			if len(s.streams[n.ID]) > s.outCap {
				s.outCap = len(s.streams[n.ID])
			}
		}
	}

	var done <-chan struct{}
	if opt.Ctx != nil {
		done = opt.Ctx.Done()
	}
	canceled := false
	cycle := 0
	for ; cycle < maxCycles; cycle++ {
		if done != nil && cycle&(CancelCadence-1) == 0 {
			select {
			case <-done:
				canceled = true
			default:
			}
			if canceled {
				break
			}
		}
		if s.prog != nil {
			s.prog.Cycle.Store(int64(cycle))
		}
		plans := s.collect()
		if len(plans) == 0 {
			break
		}
		if s.tr != nil {
			s.emitStalls(cycle, plans)
		}
		s.apply(cycle, plans)
	}

	res := &Result{
		Cycles:   cycle,
		Firings:  s.firings,
		Outputs:  s.outs,
		Arrivals: s.arrs,
		Graph:    g,
	}
	res.Clean, res.Stalled = s.drainState()
	if canceled {
		return markCanceled(res, cycle, opt.Ctx)
	}
	if cycle >= maxCycles {
		return res, fmt.Errorf("exec: no quiescence after %d cycles (livelock or MaxCycles too small)", maxCycles)
	}
	return res, nil
}

// newOracleSim builds the sequential engine's state for one run of g.
func newOracleSim(g *graph.Graph, opt Options) *sim {
	return &sim{
		g:        g,
		streams:  make([][]value.Value, g.NumNodes()),
		arcHas:   make([]bool, g.NumArcs()),
		arcVal:   make([]value.Value, g.NumArcs()),
		srcPos:   make([]int, g.NumNodes()),
		cand:     newBitset(g.NumNodes()),
		nextCand: newBitset(g.NumNodes()),
		firings:  make([]int, g.NumNodes()),
		outs:     map[string][]value.Value{},
		arrs:     map[string][]Arrival{},
		trace:    opt.Trace,
		tr:       opt.Tracer,
		prog:     opt.Progress,
	}
}

// resolveStreams binds each source cell's stream for one run: the stream
// compiled into the graph unless inputs overrides it by label. Resolution
// writes only buf (reused when its capacity allows), never the graph, so
// concurrent runs of one graph cannot race on input binding.
func resolveStreams(g *graph.Graph, inputs map[string][]value.Value, buf [][]value.Value) ([][]value.Value, error) {
	nn := g.NumNodes()
	if cap(buf) < nn {
		buf = make([][]value.Value, nn)
	}
	buf = buf[:nn]
	matched := 0
	for _, n := range g.Nodes() {
		if n.Op != graph.OpSource {
			buf[n.ID] = nil
			continue
		}
		buf[n.ID] = n.Stream
		if inputs != nil {
			if sv, ok := inputs[n.Label]; ok {
				buf[n.ID] = sv
				matched++
			}
		}
	}
	if matched < len(inputs) {
		srcLabels := make(map[string]bool)
		for _, n := range g.Nodes() {
			if n.Op == graph.OpSource {
				srcLabels[n.Label] = true
			}
		}
		for label := range inputs {
			if !srcLabels[label] {
				return nil, fmt.Errorf("exec: input %q names no source cell", label)
			}
		}
	}
	return buf, nil
}

// collect examines candidate cells against the current snapshot and returns
// the firing plans of all enabled cells in deterministic (NodeID) order.
func (s *sim) collect() []firing {
	s.plans = s.plans[:0]
	s.arcIDs = s.arcIDs[:0]
	for w, word := range s.cand {
		for word != 0 {
			id := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			n := s.g.Node(graph.NodeID(id))
			if f, why := s.plan(n); why == trace.ReasonNone {
				s.plans = append(s.plans, f)
			}
		}
	}
	return s.plans
}

// emitStalls classifies every cell that will not fire this cycle and emits
// one stall event per waiting cell (tracing only; plan is semantically
// side-effect free, so this pass cannot perturb the run).
func (s *sim) emitStalls(cycle int, plans []firing) {
	firing := make(map[graph.NodeID]bool, len(plans))
	for _, f := range plans {
		firing[f.node.ID] = true
	}
	for _, n := range s.g.Nodes() {
		if firing[n.ID] {
			continue
		}
		if _, why := s.plan(n); why == trace.ReasonOperandWait || why == trace.ReasonAckWait {
			s.tr.Emit(trace.Event{
				Cycle: int64(cycle), Kind: trace.KindStall,
				Cell: int32(n.ID), Port: -1, Unit: -1, Src: -1, Dst: -1, Reason: why,
			})
		}
	}
}

// operand returns the value on port p of n and whether it is present.
func (s *sim) operand(n *graph.Node, p int) (value.Value, bool) {
	in := n.In[p]
	if in.Literal != nil {
		return *in.Literal, true
	}
	if in.Arc == nil {
		return value.Value{}, false
	}
	if !s.arcHas[in.Arc.ID] {
		return value.Value{}, false
	}
	return s.arcVal[in.Arc.ID], true
}

// consumeArc appends port p's arc (if any) to the arena's consume run.
func (s *sim) consumeArc(n *graph.Node, p int) {
	if a := n.In[p].Arc; a != nil {
		s.arcIDs = append(s.arcIDs, a.ID)
	}
}

// plan decides whether cell n can fire now and, if so, what its effects
// are. The returned reason is trace.ReasonNone when the cell is enabled and
// otherwise classifies the stall (used by the observability layer; plan
// touches only scratch arenas either way, never machine state).
func (s *sim) plan(n *graph.Node) (firing, trace.Reason) {
	f := firing{node: n}
	f.c0 = int32(len(s.arcIDs))

	// Phase 1: operand availability and result computation.
	switch n.Op {
	case graph.OpSource:
		stream := s.streams[n.ID]
		if s.srcPos[n.ID] >= len(stream) {
			return f, trace.ReasonDone
		}
		f.out = stream[s.srcPos[n.ID]]
		f.advance = true
		f.produced = true

	case graph.OpCtlGen:
		total := n.Pattern.Len()
		if total >= 0 && s.srcPos[n.ID] >= total {
			return f, trace.ReasonDone
		}
		f.out = value.B(n.Pattern.At(s.srcPos[n.ID]))
		f.advance = true
		f.produced = true

	case graph.OpSink:
		v, ok := s.operand(n, 0)
		if !ok {
			return f, trace.ReasonOperandWait
		}
		f.out = v
		f.sink = true
		s.consumeArc(n, 0)

	case graph.OpMerge:
		ctl, ok := s.operand(n, 0)
		if !ok {
			return f, trace.ReasonOperandWait
		}
		sel := 2
		if ctl.AsBool() {
			sel = 1
		}
		v, ok := s.operand(n, sel)
		if !ok {
			return f, trace.ReasonOperandWait
		}
		// extra control ports (gates) must also be present
		for p := 3; p < len(n.In); p++ {
			if _, ok := s.operand(n, p); !ok {
				return f, trace.ReasonOperandWait
			}
		}
		f.out = v
		f.produced = true
		s.consumeArc(n, 0)
		s.consumeArc(n, sel)
		for p := 3; p < len(n.In); p++ {
			s.consumeArc(n, p)
		}

	case graph.OpTGate, graph.OpFGate:
		ctl, okc := s.operand(n, 0)
		data, okd := s.operand(n, 1)
		if !okc || !okd {
			return f, trace.ReasonOperandWait
		}
		for p := 2; p < len(n.In); p++ {
			if _, ok := s.operand(n, p); !ok {
				return f, trace.ReasonOperandWait
			}
		}
		pass := ctl.AsBool()
		if n.Op == graph.OpFGate {
			pass = !pass
		}
		f.out = data
		f.produced = pass // false: discard, consuming both operands
		for p := 0; p < len(n.In); p++ {
			s.consumeArc(n, p)
		}

	default: // ordinary operator and identity cells
		if cap(s.vals) < len(n.In) {
			s.vals = make([]value.Value, len(n.In))
		}
		vals := s.vals[:len(n.In)]
		for p := range n.In {
			v, ok := s.operand(n, p)
			if !ok {
				return f, trace.ReasonOperandWait
			}
			vals[p] = v
		}
		f.out = ApplyOp(n.Op, vals)
		f.produced = true
		for p := range n.In {
			s.consumeArc(n, p)
		}
	}
	f.c1 = int32(len(s.arcIDs))
	f.p0 = f.c1

	// Phase 2: destination availability. Every arc this firing will write
	// must be empty (its previous token acknowledged). Gated arcs are
	// written only when their gate operand is true.
	if f.produced {
		for _, a := range n.Out {
			write := true
			if a.Gate != graph.NoGate {
				gv, ok := s.operand(n, a.Gate)
				if !ok {
					return f, trace.ReasonOperandWait // gate operand itself not ready
				}
				write = gv.AsBool()
			}
			if write {
				if s.arcHas[a.ID] {
					return f, trace.ReasonAckWait
				}
				s.arcIDs = append(s.arcIDs, a.ID)
			}
		}
	}
	f.p1 = int32(len(s.arcIDs))
	return f, trace.ReasonNone
}

// apply commits the cycle's firings and updates the candidate set.
func (s *sim) apply(cycle int, plans []firing) {
	s.nextCand.reset()
	arcs := s.g.Arcs()
	for i := range plans {
		f := &plans[i]
		n := f.node
		s.firings[n.ID]++
		s.nextCand.set(int(n.ID))
		if s.tr != nil {
			s.tr.Emit(trace.Event{
				Cycle: int64(cycle), Kind: trace.KindFiring,
				Cell: int32(n.ID), Port: -1, Unit: -1, Src: -1, Dst: -1,
			})
		}
		for _, aid := range s.arcIDs[f.c0:f.c1] {
			s.arcHas[aid] = false
			// the producer of a drained arc may now be enabled
			producer := arcs[aid].From
			s.nextCand.set(int(producer))
			if s.tr != nil {
				// draining the arc is the moment the acknowledge packet
				// would reach the producer
				s.tr.Emit(trace.Event{
					Cycle: int64(cycle), Kind: trace.KindAck,
					Cell: int32(producer), Port: -1, Unit: -1, Src: -1, Dst: -1,
				})
			}
		}
		if f.advance {
			s.srcPos[n.ID]++
		}
		if f.sink {
			s.outs[n.Label] = appendPrealloc(s.outs[n.Label], f.out, s.outCap)
			s.arrs[n.Label] = appendArrPrealloc(s.arrs[n.Label], Arrival{Cycle: cycle, Val: f.out}, s.outCap)
			if s.prog != nil {
				s.prog.Arrivals.Add(1)
			}
		}
		if s.trace != nil && f.produced {
			s.trace(cycle, n, f.out)
		}
	}
	for i := range plans {
		f := &plans[i]
		for _, aid := range s.arcIDs[f.p0:f.p1] {
			s.arcHas[aid] = true
			s.arcVal[aid] = f.out
			a := arcs[aid]
			s.nextCand.set(int(a.To))
			if s.tr != nil {
				s.tr.Emit(trace.Event{
					Cycle: int64(cycle), Kind: trace.KindToken,
					Cell: int32(a.To), Port: int32(a.ToPort), Unit: -1, Src: -1, Dst: -1,
				})
			}
		}
	}
	s.cand, s.nextCand = s.nextCand, s.cand
}

// appendPrealloc appends to a sink stream, sizing the buffer for the whole
// expected stream on first use so steady-state appends never reallocate.
func appendPrealloc(s []value.Value, v value.Value, hint int) []value.Value {
	if s == nil && hint > 0 {
		s = make([]value.Value, 0, hint)
	}
	return append(s, v)
}

func appendArrPrealloc(s []Arrival, a Arrival, hint int) []Arrival {
	if s == nil && hint > 0 {
		s = make([]Arrival, 0, hint)
	}
	return append(s, a)
}

// drainState reports whether the quiescent machine is fully drained and
// lists diagnostics for any leftover state.
func (s *sim) drainState() (bool, []string) {
	var stalled []string
	for _, n := range s.g.Nodes() {
		switch n.Op {
		case graph.OpSource:
			if stream := s.streams[n.ID]; s.srcPos[n.ID] < len(stream) {
				stalled = append(stalled, fmt.Sprintf("%s: %d of %d stream values unsent",
					n.Name(), len(stream)-s.srcPos[n.ID], len(stream)))
			}
		case graph.OpCtlGen:
			if t := n.Pattern.Len(); t >= 0 && s.srcPos[n.ID] < t {
				stalled = append(stalled, fmt.Sprintf("%s: %d of %d control values unsent",
					n.Name(), t-s.srcPos[n.ID], t))
			}
		}
	}
	for _, a := range s.g.Arcs() {
		if s.arcHas[a.ID] {
			stalled = append(stalled, fmt.Sprintf("token %s stranded on arc %s -> %s port %d",
				s.arcVal[a.ID], s.g.Node(a.From).Name(), s.g.Node(a.To).Name(), a.ToPort))
		}
	}
	return len(stalled) == 0, stalled
}
