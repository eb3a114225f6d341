// Package exec simulates machine-level instruction graphs at the level of
// the static dataflow firing discipline (Dennis & Gao, CSG Memo 233, §3).
//
// Time is discrete. At each cycle every enabled cell fires simultaneously:
// it consumes the tokens on its operand arcs and the results appear on its
// destination arcs one cycle later. A cell is enabled when all required
// operands are present AND every destination arc it is about to write is
// empty — the emptiness condition is the acknowledge discipline (an arc is
// emptied exactly when its consumer fires, which is when the acknowledge
// packet would arrive).
//
// This model makes the paper's timing facts theorems of the simulator:
//
//   - a producer/consumer pair alternates, so each cell fires at most once
//     per two cycles ("about two instruction times");
//   - a fully pipelined graph sustains an initiation interval (II) of 2;
//   - a directed cycle of L cells carrying k tokens runs at II = L/k
//     (Todd's 3-cell for-iter loop: II = 3; the companion-function 4-cell
//     loop with two circulating values: II = 2).
//
// One engine implements the rule: the lane engine (batch.go). A run is B
// token lanes over one graph — B = 1 unless Options.Batch asks for more —
// and Options.Workers splits it among goroutines, by lane range when
// B > 1 and by graph shard when B = 1 (parallel.go). The inner loop is
// event-driven: a cell is re-examined only when one of its input arcs
// fills or one of its output arcs drains (a dense ready bitset, not a
// per-cycle scan of all cells), token state lives in flat slices indexed
// by arc ID, and per-cycle firing plans are carved out of arenas sized
// once per run, so steady-state simulation performs no allocation.
// Prepare decodes the graph once; a run allocates only its own state.
//
// The original sequential engine survives as a test oracle
// (oracle_test.go): differential tests require the lane engine to match
// it output for output, cycle for cycle and trace event for trace event.
package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"staticpipe/internal/graph"
	"staticpipe/internal/partition"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// Options configures a simulation run.
type Options struct {
	// MaxCycles bounds the run; 0 means DefaultMaxCycles. Exceeding the
	// bound returns an error (a live graph fed finite streams always
	// quiesces, so hitting the bound indicates a livelock or a bound that
	// is simply too small for the stream length). The partial Result —
	// firings, outputs produced so far, and the Stalled diagnostics — is
	// returned alongside the error.
	MaxCycles int
	// Trace, if non-nil, receives one line per firing (debugging aid).
	Trace func(cycle int, node *graph.Node, out value.Value)
	// Tracer, if non-nil, receives the structured observability event
	// stream (firings, token/ack arrivals, stall classifications). Tracing
	// is passive: it never alters scheduling, results, or cycle counts.
	Tracer trace.Tracer
	// Progress, if non-nil, is updated live as the run advances (one
	// atomic store per cycle, one add per sink arrival) so another
	// goroutine — the telemetry server — can observe cycle progress
	// mid-run. Like Tracer it is passive and costs one nil check when
	// unset.
	Progress *trace.Progress
	// Workers runs the engine on that many goroutines. An unbatched run
	// is partitioned into min(Workers, cells) load-balanced graph shards,
	// each owned by one goroutine, synchronized once per instruction time.
	// 0 or 1 runs on the calling goroutine. Every observable outcome —
	// outputs, arrival cycles, firings, stall diagnostics, and the trace
	// event stream — is byte-identical for any worker count.
	Workers int
	// Ctx, if non-nil, cancels the run early: the loop polls Ctx.Done()
	// every CancelCadence cycles (the Progress-counter cadence bounds how
	// stale the poll can be) and, when fired, returns the partial Result —
	// outputs and firings so far, Canceled set, a "canceled" stall
	// diagnostic — together with a wrapping error. A nil Ctx costs one nil
	// check per cadence window, preserving the zero-perturbation
	// guarantee; an un-canceled Ctx never alters results or cycle counts.
	Ctx context.Context
	// Batch widens the run to B independent token lanes advancing through
	// one compiled graph in a single Run: every arc slot, source position,
	// and firing counter is replicated per lane (structure-of-arrays,
	// lane-minor), so the per-cycle candidate walk and instruction decode
	// are paid once per batch instead of once per stream. 0 or 1 runs one
	// lane and reports an unbatched Result (Batch 0, Lanes nil); at most
	// MaxBatch lanes (the candidate set keeps one 64-bit lane mask per
	// cell). Lane 0 always consumes the streams bound on the graph and is
	// byte-identical to an unbatched run — outputs, arrival cycles,
	// firings, stall diagnostics, and the lane-0 trace event stream all
	// match. When Batch > 1, Workers shards the run by contiguous lane
	// ranges instead of by graph partition: lanes never interact, so the
	// workers need no barriers and determinism holds by construction.
	Batch int
	// LaneInputs supplies per-lane source streams for a batched run,
	// keyed by source-cell label (the declared input name): LaneInputs[l]
	// feeds lane l. A nil entry, a missing key, and always lane 0 fall
	// back to the base streams (Inputs, or the streams bound on the
	// graph). len(LaneInputs) must not exceed Batch.
	LaneInputs []map[string][]value.Value
	// Inputs, when non-nil, overrides source streams by source-cell label
	// (the declared input name) for this run only: the compiled graph is
	// never written, so one graph — in particular one cached Prepared
	// artifact — can run concurrently with different inputs. A missing
	// key falls back to the stream bound on the graph; a key naming no
	// source cell is an error. In a batched run Inputs is the base every
	// lane defaults to and LaneInputs overrides per lane.
	Inputs map[string][]value.Value
}

// CancelCadence is how many simulated cycles pass between polls of
// Options.Ctx (a power of two so the check is a mask). Cancellation of an
// in-flight run is observed within at most this many cycles.
const CancelCadence = 1024

// DefaultMaxCycles bounds runs when Options.MaxCycles is zero.
const DefaultMaxCycles = 10_000_000

// Arrival records one value reaching a sink and the cycle it arrived.
type Arrival struct {
	Cycle int
	Val   value.Value
}

// Result holds the outcome of a simulation run.
type Result struct {
	// Cycles is the cycle count until quiescence (no cell enabled).
	Cycles int
	// Firings counts how many times each cell fired, indexed by NodeID of
	// the simulated (FIFO-expanded) graph.
	Firings []int
	// Outputs holds each sink's received stream, keyed by sink label.
	Outputs map[string][]value.Value
	// Arrivals holds each sink's arrival times, keyed by sink label.
	Arrivals map[string][]Arrival
	// Clean reports whether the graph drained completely: all sources
	// exhausted, no token left on any arc. A false value with non-empty
	// Stalled means the pipeline jammed or starved.
	Clean bool
	// Canceled reports that Options.Ctx fired before quiescence; the
	// Result carries whatever the run produced up to the cancellation
	// cycle, and Stalled leads with a "canceled" diagnostic.
	Canceled bool
	// Stalled lists diagnostics for cells left with partial state.
	Stalled []string
	// Graph is the graph actually simulated (FIFO cells expanded into
	// identity chains).
	Graph *graph.Graph
	// Shards holds per-shard accounting when an unbatched run was split
	// into graph shards (Options.Workers > 1); nil otherwise.
	Shards []partition.ShardStat
	// ShardDiag lists shard/ring diagnostics captured when a sharded run
	// halted without quiescing, naming where work was still pending. It
	// is separate from Stalled so stall diagnostics stay byte-identical
	// across worker counts.
	ShardDiag []string
	// Batch is the lane count of a batched run (0 for unbatched runs).
	Batch int
	// Lanes holds per-lane views of a batched run (nil for unbatched
	// runs). Lanes[0] describes the same lane as the top-level fields,
	// which always report lane 0 so existing consumers observe exactly
	// what an unbatched run would have produced.
	Lanes []LaneResult
}

// Output returns the stream received by the sink with the given label.
func (r *Result) Output(label string) []value.Value { return r.Outputs[label] }

// SteadyII returns the steady-state initiation interval of an arrival
// stream: the average cycle gap between consecutive arrivals over a window
// chosen to exclude transients. With at least 8 samples the window is the
// middle half of the stream, excluding both the pipeline fill and drain
// transients; with 4–7 samples only the fill prefix (the first quarter) is
// skipped — there are too few samples to also trim the tail; with 2–3
// samples the whole stream is the window. It returns 0 for fewer than two
// arrivals.
func SteadyII(arr []Arrival) float64 {
	if len(arr) < 2 {
		return 0
	}
	lo, hi := 0, len(arr)-1
	switch {
	case len(arr) >= 8:
		lo, hi = len(arr)/4, 3*len(arr)/4
	case len(arr) >= 4:
		lo = len(arr) / 4
	}
	return float64(arr[hi].Cycle-arr[lo].Cycle) / float64(hi-lo)
}

// II returns the steady-state initiation interval observed at the given
// sink (see SteadyII for the measurement window).
func (r *Result) II(label string) float64 { return SteadyII(r.Arrivals[label]) }

// FullyPipelined reports whether the sink sustained the maximum rate of one
// result per two instruction times (§3).
func (r *Result) FullyPipelined(label string) bool {
	ii := r.II(label)
	return ii > 0 && ii <= 2.0+1e-9
}

// bitset is a dense set of node IDs — the event-driven ready set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

func (b bitset) reset() {
	for i := range b {
		b[i] = 0
	}
}

// Run simulates the graph until no cell is enabled and returns the result.
// When MaxCycles is exhausted before quiescence the partial Result (with
// Stalled diagnostics populated) is returned together with the error.
//
// If Options.Ctx carries an active obs.Span, Run annotates it with the
// run's outcome and per-shard/per-lane children after the simulation loop
// has ended — never from inside it — so an attached span cannot perturb
// outputs, firing order, or cycle counts (see span.go).
func Run(g *graph.Graph, opt Options) (*Result, error) {
	p, err := Prepare(g)
	if err != nil {
		return nil, err
	}
	return p.Run(opt)
}

// Run executes the prepared graph. Safe for concurrent use: every call
// allocates its own token, position, counter and sink state and only reads
// the graph and its decoded program. See Options.Inputs for running with
// per-call input streams.
func (p *Prepared) Run(opt Options) (*Result, error) {
	res, err := p.runPrepared(opt)
	annotateSpan(opt.Ctx, res, err, opt.Workers, opt.Batch)
	return res, err
}

func (p *Prepared) runPrepared(opt Options) (*Result, error) {
	maxCycles := opt.MaxCycles
	if maxCycles <= 0 {
		maxCycles = DefaultMaxCycles
	}
	s, err := newBsim(p, opt, maxCycles, max(opt.Batch, 1))
	if err != nil {
		return nil, err
	}
	if w := min(opt.Workers, p.g.NumNodes()); s.B == 1 && w > 1 {
		return runSharded(s, opt, w)
	}
	return s.runLanes(opt)
}

// markCanceled stamps a partial result with the run's cancellation
// diagnostics.
func markCanceled(res *Result, cycle int, ctx context.Context) (*Result, error) {
	res.Canceled = true
	res.Clean = false
	res.Stalled = append([]string{fmt.Sprintf("canceled: run stopped by context at cycle %d before quiescence", cycle)},
		res.Stalled...)
	return res, fmt.Errorf("exec: run canceled at cycle %d: %w", cycle, context.Cause(ctx))
}

// ApplyOp evaluates an ordinary (non-gate, non-merge) operator cell; it is
// shared with the packet-level machine simulator.
func ApplyOp(op graph.Op, v []value.Value) value.Value {
	switch op {
	case graph.OpID:
		return v[0]
	case graph.OpAdd:
		return value.Add(v[0], v[1])
	case graph.OpSub:
		return value.Sub(v[0], v[1])
	case graph.OpMul:
		return value.Mul(v[0], v[1])
	case graph.OpDiv:
		return value.Div(v[0], v[1])
	case graph.OpMin:
		return value.Min(v[0], v[1])
	case graph.OpMax:
		return value.Max(v[0], v[1])
	case graph.OpNeg:
		return value.Neg(v[0])
	case graph.OpAbs:
		return value.Abs(v[0])
	case graph.OpLT:
		return value.LT(v[0], v[1])
	case graph.OpLE:
		return value.LE(v[0], v[1])
	case graph.OpGT:
		return value.GT(v[0], v[1])
	case graph.OpGE:
		return value.GE(v[0], v[1])
	case graph.OpEQ:
		return value.EQ(v[0], v[1])
	case graph.OpNE:
		return value.NE(v[0], v[1])
	case graph.OpAnd:
		return value.And(v[0], v[1])
	case graph.OpOr:
		return value.Or(v[0], v[1])
	case graph.OpNot:
		return value.Not(v[0])
	default:
		panic(fmt.Sprintf("exec: ApplyOp on %s", op))
	}
}

// applyBinary is ApplyOp for two-operand cells with the operands passed in
// registers — the planner's hot path, where a scratch-slice round-trip per
// lane would dominate the amortized firing cost.
func applyBinary(op graph.Op, a, b value.Value) value.Value {
	switch op {
	case graph.OpAdd:
		return value.Add(a, b)
	case graph.OpSub:
		return value.Sub(a, b)
	case graph.OpMul:
		return value.Mul(a, b)
	case graph.OpDiv:
		return value.Div(a, b)
	case graph.OpMin:
		return value.Min(a, b)
	case graph.OpMax:
		return value.Max(a, b)
	case graph.OpLT:
		return value.LT(a, b)
	case graph.OpLE:
		return value.LE(a, b)
	case graph.OpGT:
		return value.GT(a, b)
	case graph.OpGE:
		return value.GE(a, b)
	case graph.OpEQ:
		return value.EQ(a, b)
	case graph.OpNE:
		return value.NE(a, b)
	case graph.OpAnd:
		return value.And(a, b)
	case graph.OpOr:
		return value.Or(a, b)
	default:
		panic(fmt.Sprintf("exec: applyBinary on %s", op))
	}
}

// Describe summarizes a result for reports and error messages.
func Describe(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d clean=%v\n", r.Cycles, r.Clean)
	labels := make([]string, 0, len(r.Outputs))
	for l := range r.Outputs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(&b, "sink %q: %d values, II=%.3f\n", l, len(r.Outputs[l]), r.II(l))
	}
	for _, d := range r.Stalled {
		fmt.Fprintf(&b, "stall: %s\n", d)
	}
	for _, d := range r.ShardDiag {
		fmt.Fprintf(&b, "shard-diag: %s\n", d)
	}
	return b.String()
}
