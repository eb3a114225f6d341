// Package mincost implements minimum-cost maximum-flow by successive
// shortest paths with Bellman-Ford path search.
//
// It is the substrate behind optimal pipeline balancing: the paper (§8,
// conclusion 3) observes that balancing an acyclic dataflow graph with the
// minimum number of buffer stages "is equivalent to the linear programming
// dual of the min-cost flow problem". Package balance builds that flow
// network and reads the optimal buffer levels off this solver's final node
// potentials; package place solves its cell-to-PE assignment rounds here.
//
// Costs may be negative (balance uses cost −w edges); the network must not
// contain a negative-cost directed cycle of positive capacity.
//
// Every path search is an active-set Bellman-Ford (relax): passes sweep
// the nodes in index order, as the textbook algorithm does, but skip each
// node whose label has not changed since it was last scanned, a scan that
// could not improve any label. The augmenting paths, flows and potentials
// are therefore exactly those of the plain algorithm, at a cost
// proportional to the labels that actually move. A Dijkstra (primal-dual)
// search on reduced costs would be asymptotically faster but breaks ties
// between equal-cost paths differently; the optimal potentials would not
// change, but package place's assignments, and through them the placed
// machine's cycle counts, would.
package mincost

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// edge is half of an arc pair: edges[i] and edges[i^1] are a forward edge
// and its residual reverse.
type edge struct {
	to   int
	cap  int64
	cost int64
}

// Graph is a flow network under construction and solution.
type Graph struct {
	n     int
	edges []edge
	adj   [][]int // adjacency lists of edge indices

	// Path-search scratch, sized to n and reused by every augmentation.
	dist   []int64
	prev   []int
	active []uint64 // bitset of nodes to scan
}

// New returns a network with n nodes numbered 0..n-1.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// AddNode appends a node and returns its index.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// AddEdge adds a directed edge u→v with the given capacity and per-unit
// cost, returning an identifier usable with Flow. It panics on out-of-range
// endpoints or negative capacity.
func (g *Graph) AddEdge(u, v int, capacity, cost int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("mincost: edge %d->%d out of range (n=%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic("mincost: negative capacity")
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: v, cap: capacity, cost: cost})
	g.edges = append(g.edges, edge{to: u, cap: 0, cost: -cost})
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id+1)
	return id
}

// Flow returns the flow currently carried by edge id (callable after
// MinCostMaxFlow).
func (g *Graph) Flow(id int) int64 { return g.edges[id^1].cap }

// ErrNegativeCycle reports a negative-cost cycle of positive capacity,
// which makes min-cost flow unbounded (and, for package balance, means the
// balancing constraint system is infeasible).
var ErrNegativeCycle = errors.New("mincost: negative-cost cycle in network")

const inf = math.MaxInt64 / 4

// scratch sizes the path-search buffers to the current node count; nodes
// added since the last solve grow them.
func (g *Graph) scratch() {
	if len(g.dist) != g.n {
		g.dist = make([]int64, g.n)
		g.prev = make([]int, g.n)
		g.active = make([]uint64, (g.n+63)/64)
	}
}

// relax runs Bellman-Ford passes over the residual edges, lowering the
// labels in dist (and recording each node's incoming edge in prev, when
// non-nil) until a pass changes nothing. The nodes marked in g.active on
// entry are the ones the first pass scans.
//
// Each pass visits the nodes in index order like a full sweep, but scans
// only nodes marked active: a node is marked when its label drops and
// unmarked when it is scanned. An unmarked node was last scanned at its
// current label, so every residual edge u→v already has dist[v] ≤
// dist[u]+cost (capacities are fixed during a search and labels only
// fall); scanning it again could not strictly improve anything. The
// updates, the pass count and the negative-cycle verdict are thus exactly
// those of the full sweep.
func (g *Graph) relax(dist []int64, prev []int) error {
	active := g.active
	for iter := 0; ; iter++ {
		changed := false
		for wi := range active {
			for w := active[wi]; w != 0; {
				b := bits.TrailingZeros64(w)
				u := wi<<6 | b
				active[wi] &^= 1 << b
				for _, id := range g.adj[u] {
					e := &g.edges[id]
					if e.cap <= 0 {
						continue
					}
					if nd := dist[u] + e.cost; nd < dist[e.to] {
						dist[e.to] = nd
						if prev != nil {
							prev[e.to] = id
						}
						active[e.to>>6] |= 1 << (e.to & 63)
						changed = true
					}
				}
				// Later nodes of this word marked during the scan join
				// this pass; u and earlier ones wait for the next.
				w = active[wi] & (^uint64(0) << (b + 1))
			}
		}
		if !changed {
			return nil
		}
		if iter >= g.n {
			return ErrNegativeCycle
		}
	}
}

// bellmanFord computes shortest distances from s over residual edges into
// g.dist and, for path reconstruction, the incoming edge index per node
// into g.prev. It returns ErrNegativeCycle if a negative cycle is
// reachable.
func (g *Graph) bellmanFord(s int) error {
	for i := range g.dist {
		g.dist[i] = inf
		g.prev[i] = -1
	}
	clear(g.active)
	g.dist[s] = 0
	g.active[s>>6] |= 1 << (s & 63)
	return g.relax(g.dist, g.prev)
}

// MinCostMaxFlow pushes as much flow as possible from s to t at minimum
// total cost and returns (flow, cost).
func (g *Graph) MinCostMaxFlow(s, t int) (int64, int64, error) {
	g.scratch()
	dist, prev := g.dist, g.prev
	var flow, cost int64
	for {
		if err := g.bellmanFord(s); err != nil {
			return 0, 0, err
		}
		if dist[t] >= inf {
			return flow, cost, nil
		}
		// bottleneck along the path
		push := int64(inf)
		for v := t; v != s; {
			id := prev[v]
			if g.edges[id].cap < push {
				push = g.edges[id].cap
			}
			v = g.edges[id^1].to
		}
		for v := t; v != s; {
			id := prev[v]
			g.edges[id].cap -= push
			g.edges[id^1].cap += push
			v = g.edges[id^1].to
		}
		flow += push
		cost += push * dist[t]
	}
}

// Potentials returns, for the current (post-solve) residual network, a
// price vector h such that every residual edge (u→v, cap>0) satisfies the
// reduced-cost condition cost + h[u] − h[v] ≥ 0. It is computed as
// Bellman-Ford distances from a virtual root with zero-cost edges to every
// node, so every node is assigned a finite price. These prices are the
// optimal duals of the flow LP — exactly the balancing levels package
// balance needs (negated).
func (g *Graph) Potentials() ([]int64, error) {
	g.scratch()
	dist := make([]int64, g.n)
	for i := range g.active {
		g.active[i] = ^uint64(0)
	}
	if r := g.n & 63; r != 0 {
		g.active[len(g.active)-1] = 1<<r - 1
	}
	if err := g.relax(dist, nil); err != nil {
		return nil, err
	}
	return dist, nil
}
