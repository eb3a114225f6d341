// Package mcm computes the maximum cycle ratio of a marked graph — the
// analytical counterpart of the simulator in package exec.
//
// Under the static dataflow firing discipline, every data arc u→v carries a
// pair of timing constraints: the forward result path (v fires at least one
// cycle after u, enabled by the tokens initially on the arc) and the
// reverse acknowledge path (u may refill the arc only after v drains it;
// the free slot is an initial token on the reverse edge). The steady-state
// initiation interval of the whole graph is
//
//	II = max over directed cycles C of  latency(C) / tokens(C),
//
// a classical marked-graph result the paper uses implicitly throughout §3
// and §7: a producer/consumer arc pair forms a 2-cycle with one token
// (II = 2, "two instruction times"); Todd's 3-cell for-iter loop carries one
// token (II = 3, the paper's 1/3 rate); the companion-transformed loop has 4
// cells and two circulating values (II = 2, maximum). A cycle with zero
// tokens can never fire — a structural deadlock.
//
// The ratio is found by binary search on λ with positive-cycle detection,
// then snapped to the exact rational (denominators are bounded by the total
// token count) and verified with integer arithmetic. Every cycle test is
// one queue-based longest-path relaxation over a compressed adjacency
// (relax): it rescans only nodes whose label rose, and finds a positive
// cycle by checking the parent pointers for a loop once per n label
// updates. Its answers — whether a positive cycle exists, and otherwise
// the unique longest-path labels — do not depend on scan order, so the
// ratio and the critical cycle are exactly those of the textbook
// Bellman-Ford sweep.
package mcm

import (
	"errors"
	"fmt"

	"staticpipe/internal/graph"
)

// Edge is one timing constraint: traversing it takes Latency cycles and it
// initially holds Tokens tokens. Latency may be negative — PredictII uses
// negative reverse latencies to model stream-grid skew — but every cycle a
// well-formed graph contains must have positive total latency (the
// producer/consumer pair cycles guarantee this for instruction graphs).
type Edge struct {
	From, To int
	Latency  int64
	Tokens   int64
}

// Result is the outcome of a cycle-ratio analysis.
type Result struct {
	// HasCycle reports whether the constraint graph contains any directed
	// cycle. Acyclic graphs impose no steady-state rate bound.
	HasCycle bool
	// Num/Den is the maximum cycle ratio as a reduced fraction; the
	// minimum sustainable initiation interval is Num/Den cycles per
	// firing. Zero when HasCycle is false.
	Num, Den int64
}

// Float returns the ratio as a float64 (0 when acyclic).
func (r Result) Float() float64 {
	if !r.HasCycle {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

// String renders the result for reports.
func (r Result) String() string {
	if !r.HasCycle {
		return "acyclic (no rate bound)"
	}
	return fmt.Sprintf("II = %d/%d = %.4g", r.Num, r.Den, r.Float())
}

// ErrDeadlock reports a directed cycle with zero tokens: no cell on it can
// ever fire.
var ErrDeadlock = errors.New("mcm: zero-token cycle (structural deadlock)")

// MaxRatio computes the maximum cycle ratio of the given constraint graph
// on nodes 0..n-1. It returns ErrDeadlock if a zero-token cycle exists.
func MaxRatio(n int, edges []Edge) (Result, error) {
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return Result{}, fmt.Errorf("mcm: edge %d->%d out of range (n=%d)", e.From, e.To, n)
		}
		if e.Tokens < 0 {
			return Result{}, fmt.Errorf("mcm: negative tokens on edge %d->%d", e.From, e.To)
		}
	}
	if !hasCycle(n, edges, func(Edge) bool { return true }) {
		return Result{}, nil
	}
	if hasCycle(n, edges, func(e Edge) bool { return e.Tokens == 0 }) {
		return Result{}, ErrDeadlock
	}

	var totalLat, totalTok int64 = 0, 0
	for _, e := range edges {
		if e.Latency > 0 {
			totalLat += e.Latency
		}
		totalTok += e.Tokens
	}
	if totalTok == 0 {
		totalTok = 1
	}
	c := newCSR(n, edges)
	fw := make([]float64, len(edges))
	fr := newRelaxer[float64](n)
	iw := make([]int64, len(edges))
	ir := newRelaxer[int64](n)
	// positiveCycle(p, q) reports whether some cycle C has
	// latency(C)/tokens(C) > p/q, i.e. Σ(q·lat − p·tok) > 0 over C.
	positiveCycle := func(p, q int64) bool {
		for k := range iw {
			iw[k] = q*c.lat[k] - p*c.tok[k]
		}
		return !ir.relax(c, iw, 0)
	}
	// positiveCycleFloat is the float-weight variant used during the
	// search; label gains of 1e-12 or less are ignored.
	positiveCycleFloat := func(lambda float64) bool {
		for k := range fw {
			fw[k] = float64(c.lat[k]) - lambda*float64(c.tok[k])
		}
		return !fr.relax(c, fw, 1e-12)
	}

	// Binary search λ = lo..hi on reals until the interval is narrower than
	// 1/(2·totalTok²); then exactly one rational with denominator ≤
	// totalTok lies in it — the answer.
	lo, hi := 0.0, float64(totalLat)
	for i := 0; i < 80 && hi-lo > 0.5/float64(totalTok*totalTok+1); i++ {
		mid := (lo + hi) / 2
		if positiveCycleFloat(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	num, den := bestRational(lo, hi, totalTok)
	// Verify: no cycle exceeds num/den, and tightening by 1/den² finds one.
	if positiveCycle(num, den) {
		return Result{}, fmt.Errorf("mcm: ratio verification failed (snapped too low: %d/%d)", num, den)
	}
	if num > 0 && !positiveCycle(num*den-1, den*den) {
		return Result{}, fmt.Errorf("mcm: ratio verification failed (snapped too high: %d/%d)", num, den)
	}
	g := gcd(num, den)
	return Result{HasCycle: true, Num: num / g, Den: den / g}, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// hasCycle detects a directed cycle over the subgraph of edges accepted by
// keep, using iterative three-color DFS.
func hasCycle(n int, edges []Edge, keep func(Edge) bool) bool {
	adj := make([][]int, n)
	for i, e := range edges {
		if keep(e) {
			adj[e.From] = append(adj[e.From], i)
		}
	}
	color := make([]uint8, n) // 0 white, 1 gray, 2 black
	type frame struct{ node, next int }
	for s := 0; s < n; s++ {
		if color[s] != 0 {
			continue
		}
		stack := []frame{{s, 0}}
		color[s] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				e := edges[adj[f.node][f.next]]
				f.next++
				switch color[e.To] {
				case 0:
					color[e.To] = 1
					stack = append(stack, frame{e.To, 0})
				case 1:
					return true
				}
			} else {
				color[f.node] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	return false
}

// csr is a constraint graph in compressed sparse row form: the edges
// leaving node u occupy positions start[u] to start[u+1]-1, in input order.
type csr struct {
	start    []int32
	to       []int32
	lat, tok []int64
}

func newCSR(n int, edges []Edge) *csr {
	c := &csr{
		start: make([]int32, n+1),
		to:    make([]int32, len(edges)),
		lat:   make([]int64, len(edges)),
		tok:   make([]int64, len(edges)),
	}
	for _, e := range edges {
		c.start[e.From+1]++
	}
	for u := 0; u < n; u++ {
		c.start[u+1] += c.start[u]
	}
	fill := append([]int32(nil), c.start[:n]...)
	for _, e := range edges {
		k := fill[e.From]
		fill[e.From]++
		c.to[k], c.lat[k], c.tok[k] = int32(e.To), e.Latency, e.Tokens
	}
	return c
}

// relaxer holds the scratch of one queue-based longest-path relaxation,
// reused across the cycle tests of one analysis.
type relaxer[W int64 | float64] struct {
	dist   []W
	parent []int32 // node whose scan last raised the label; -1 for none
	queue  []int32 // ring of the nodes waiting for a scan
	queued []bool
	mark   []int32 // walk stamps for the parent-loop check
}

func newRelaxer[W int64 | float64](n int) *relaxer[W] {
	return &relaxer[W]{
		dist:   make([]W, n),
		parent: make([]int32, n),
		queue:  make([]int32, n),
		queued: make([]bool, n),
		mark:   make([]int32, n),
	}
}

// relax computes longest-path labels from a virtual source joined to every
// node by a zero-weight edge, with weight w[k] on CSR edge k; a label is
// raised only when it gains more than eps. It returns true with the
// converged labels in r.dist, or false if a positive cycle exists.
//
// Labels are raised in queue order (each node queued at most once at a
// time) rather than in sweeps. Whenever the parent pointers are acyclic,
// each label is at most the weight of its simple parent path, so the
// labels are bounded; a positive cycle raises them without bound, after
// which the parent pointers must contain a loop, and every such loop is a
// positive cycle. Checking for a loop once per n label updates therefore
// finds every positive cycle, at O(1) amortized cost per update.
func (r *relaxer[W]) relax(c *csr, w []W, eps W) bool {
	n := len(r.dist)
	for v := 0; v < n; v++ {
		r.dist[v] = 0
		r.parent[v] = -1
		r.queue[v] = int32(v)
		r.queued[v] = true
	}
	head, size, updates := 0, n, 0
	for size > 0 {
		u := r.queue[head]
		if head++; head == n {
			head = 0
		}
		size--
		r.queued[u] = false
		for k := c.start[u]; k < c.start[u+1]; k++ {
			v := c.to[k]
			if nd := r.dist[u] + w[k]; nd > r.dist[v]+eps {
				r.dist[v] = nd
				r.parent[v] = u
				if !r.queued[v] {
					r.queued[v] = true
					tail := head + size
					if tail >= n {
						tail -= n
					}
					r.queue[tail] = v
					size++
				}
				if updates++; updates == n {
					updates = 0
					if r.parentLoop() {
						return false
					}
				}
			}
		}
	}
	return true
}

// parentLoop reports whether the parent pointers contain a cycle.
func (r *relaxer[W]) parentLoop() bool {
	for v := range r.mark {
		r.mark[v] = -1
	}
	for s := range r.parent {
		v := int32(s)
		for v >= 0 && r.mark[v] < 0 {
			r.mark[v] = int32(s)
			v = r.parent[v]
		}
		if v >= 0 && r.mark[v] == int32(s) {
			return true
		}
	}
	return false
}

// bestRational returns the rational p/q with the smallest q ≤ maxDen lying
// in [lo, hi], found by walking the Stern–Brocot tree.
func bestRational(lo, hi float64, maxDen int64) (int64, int64) {
	// Handle integer-valued intervals directly.
	for k := int64(lo); float64(k) <= hi+1e-15; k++ {
		if float64(k) >= lo-1e-15 {
			return k, 1
		}
	}
	var pl, ql, pr, qr int64 = 0, 1, 1, 0 // 0/1 .. 1/0
	for i := 0; i < 1024; i++ {
		pm, qm := pl+pr, ql+qr
		if qm > maxDen {
			break
		}
		m := float64(pm) / float64(qm)
		switch {
		case m < lo:
			pl, ql = pm, qm
		case m > hi:
			pr, qr = pm, qm
		default:
			return pm, qm
		}
	}
	// Fall back to the closest bound with denominator maxDen.
	p := int64((lo+hi)/2*float64(maxDen) + 0.5)
	return p, maxDen
}

// PredictII builds the marked timing graph of a machine-level instruction
// graph (after FIFO expansion) and returns its maximum cycle ratio — the
// analytically predicted initiation interval.
//
// Feedback arcs carry their scheme's steady-state marking (Arc.Marking: 1
// for Todd loops, 2 for companion loops) and contribute no acknowledge
// edge — their producer is a gated merge that skips the send when the loop
// winds down, so the one-slot backpressure pair does not apply. Graphs
// containing other data-dependent routing (gates, merges) are predicted
// under the conservative assumption that every arc is exercised every
// firing; for the unconditional graphs of §3 and the loop kernels of §7
// the prediction is exact, and the test suite cross-checks it against
// simulation.
func PredictII(g *graph.Graph) (Result, error) {
	g = g.ExpandFIFOs()
	return MaxRatio(g.NumNodes(), TimingEdges(g))
}

// TimingEdges builds the marked timing-constraint graph PredictII analyzes:
// a forward edge per data arc and, for non-feedback arcs, the reverse
// acknowledge edge carrying the arc's free slot.
func TimingEdges(g *graph.Graph) []Edge {
	var edges []Edge
	for _, a := range g.Arcs() {
		tok := int64(a.Marking)
		if a.Init != nil {
			tok++
		}
		// A window gate's output for wave j derives from input wave
		// j+Skew, shifting its timing by 2·Skew cycles at full rate: the
		// forward constraint lengthens and the acknowledge constraint
		// shortens by that amount (their pair cycle stays at ratio 2).
		skew := int64(a.Skew)
		edges = append(edges, Edge{From: int(a.From), To: int(a.To), Latency: 1 + 2*skew, Tokens: tok})
		if !a.Feedback || tok == 0 {
			rev := int64(1) - tok
			if rev < 0 {
				rev = 0
			}
			edges = append(edges, Edge{From: int(a.To), To: int(a.From), Latency: 1 - 2*skew, Tokens: rev})
		}
	}
	return edges
}

// Critical computes PredictII's maximum cycle ratio together with the
// instruction cells of one critical cycle — the cycle whose
// latency/tokens ratio attains the bound, and therefore the path a
// bottleneck report should name. Node IDs refer to the FIFO-expanded graph
// (the graph the simulators actually run). The cycle is nil for acyclic
// constraint graphs.
func Critical(g *graph.Graph) (Result, []graph.NodeID, error) {
	g = g.ExpandFIFOs()
	edges := TimingEdges(g)
	r, err := MaxRatio(g.NumNodes(), edges)
	if err != nil || !r.HasCycle {
		return r, nil, err
	}
	cyc := CriticalNodes(g.NumNodes(), edges, r)
	ids := make([]graph.NodeID, len(cyc))
	for i, v := range cyc {
		ids[i] = graph.NodeID(v)
	}
	return r, ids, nil
}

// CriticalNodes returns the nodes of one cycle achieving the maximum ratio
// r previously computed by MaxRatio over the same constraint graph, in
// traversal order. It returns nil if r reports no cycle, or if some cycle
// exceeds r (r is not the maximum ratio of this graph).
//
// With weights w = Den·latency − Num·tokens no positive cycle exists and a
// critical cycle has total weight exactly zero. Longest-path potentials
// from a virtual source make every edge of such a cycle tight
// (dist[from] + w = dist[to]): around a cycle the potential differences sum
// to zero and each slack is nonnegative, so all slacks vanish. Conversely
// any cycle inside the tight subgraph telescopes to total weight zero, i.e.
// is critical — so one DFS over tight edges finds the answer.
func CriticalNodes(n int, edges []Edge, r Result) []int {
	if !r.HasCycle {
		return nil
	}
	c := newCSR(n, edges)
	cw := make([]int64, len(edges))
	for k := range cw {
		cw[k] = r.Den*c.lat[k] - r.Num*c.tok[k]
	}
	// Longest-path potentials: with no positive cycle, simple paths attain
	// the optimum and the labels are unique.
	lr := newRelaxer[int64](n)
	if !lr.relax(c, cw, 0) {
		return nil // r is below the true maximum ratio
	}
	dist := lr.dist
	adj := make([][]int, n) // tight-edge adjacency: node -> successor nodes
	for _, e := range edges {
		if dist[e.From]+r.Den*e.Latency-r.Num*e.Tokens == dist[e.To] {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	// Iterative DFS for a cycle in the tight subgraph; the gray stack is
	// the current path, so hitting a gray node yields the cycle directly.
	color := make([]uint8, n)
	type frame struct{ node, next int }
	for s := 0; s < n; s++ {
		if color[s] != 0 {
			continue
		}
		stack := []frame{{s, 0}}
		color[s] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				to := adj[f.node][f.next]
				f.next++
				switch color[to] {
				case 0:
					color[to] = 1
					stack = append(stack, frame{to, 0})
				case 1:
					var cyc []int
					for i := range stack {
						if stack[i].node == to {
							for _, fr := range stack[i:] {
								cyc = append(cyc, fr.node)
							}
							return cyc
						}
					}
				}
			} else {
				color[f.node] = 2
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}
