package mincost

import (
	"math/rand"
	"slices"
	"testing"
)

// The oracle below is the solver as it stood before the active-set scan:
// successive shortest paths with a full Bellman-Ford sweep over every node
// per augmentation, and the same full sweep for Potentials. It is kept
// only here, to pin the production solver to it result for result.

func (g *Graph) oracleBellmanFord(s int) ([]int64, []int, error) {
	dist := make([]int64, g.n)
	prev := make([]int, g.n)
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[s] = 0
	for iter := 0; ; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			if dist[u] >= inf {
				continue
			}
			for _, id := range g.adj[u] {
				e := g.edges[id]
				if e.cap <= 0 {
					continue
				}
				if nd := dist[u] + e.cost; nd < dist[e.to] {
					dist[e.to] = nd
					prev[e.to] = id
					changed = true
				}
			}
		}
		if !changed {
			return dist, prev, nil
		}
		if iter >= g.n {
			return nil, nil, ErrNegativeCycle
		}
	}
}

func (g *Graph) oracleMinCostMaxFlow(s, t int) (int64, int64, error) {
	var flow, cost int64
	for {
		dist, prev, err := g.oracleBellmanFord(s)
		if err != nil {
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

func (g *Graph) oraclePotentials() ([]int64, error) {
	dist := make([]int64, g.n)
	for iter := 0; ; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			for _, id := range g.adj[u] {
				e := g.edges[id]
				if e.cap <= 0 {
					continue
				}
				if nd := dist[u] + e.cost; nd < dist[e.to] {
					dist[e.to] = nd
					changed = true
				}
			}
		}
		if !changed {
			return dist, nil
		}
		if iter >= g.n {
			return nil, ErrNegativeCycle
		}
	}
}

// network builds one random instance: it returns the graph, the source and
// the sink. It is called twice per seed, so it must draw only from rng.
type network func(rng *rand.Rand) (*Graph, int, int)

// balanceNet mirrors balance.Solve: DAG constraint arcs of cost −W, rigid
// constraints as a reverse pair, and node supplies routed from a super
// source to a super sink. The constraints are drawn feasible under random
// levels; one draw in eight nudges a rigid weight, which can leave the
// system infeasible (a negative cycle).
func balanceNet(rng *rand.Rand) (*Graph, int, int) {
	n := 2 + rng.Intn(40)
	type con struct {
		u, v  int
		w     int64
		rigid bool
	}
	level := make([]int64, n)
	for v := 1; v < n; v++ {
		level[v] = level[v-1] + 1 + rng.Int63n(4)
	}
	nudge := rng.Intn(8) == 0
	var cons []con
	for v := 1; v < n; v++ {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			u := rng.Intn(v)
			c := con{u: u, v: v, w: 1 + rng.Int63n(level[v]-level[u]), rigid: rng.Intn(6) == 0}
			if c.rigid {
				c.w = level[v] - level[u]
				if nudge && rng.Intn(3) == 0 {
					c.w++
				}
			}
			cons = append(cons, c)
		}
	}
	a := make([]int64, n)
	for _, c := range cons {
		if !c.rigid {
			a[c.v]++
			a[c.u]--
		}
	}
	var supply int64
	for _, x := range a {
		if x < 0 {
			supply -= x
		}
	}
	g := New(n + 2)
	s, t := n, n+1
	for _, c := range cons {
		g.AddEdge(c.u, c.v, supply+1, -c.w)
		if c.rigid {
			g.AddEdge(c.v, c.u, supply+1, c.w)
		}
	}
	for w, x := range a {
		if x < 0 {
			g.AddEdge(s, w, -x, 0)
		} else if x > 0 {
			g.AddEdge(w, t, x, 0)
		}
	}
	return g, s, t
}

// placeNet mirrors place.assign: source → cell (capacity 1), cell → every
// PE at a small cut cost, PE → sink at the load cap.
func placeNet(rng *rand.Rand) (*Graph, int, int) {
	nc, pes := 1+rng.Intn(30), 1+rng.Intn(6)
	load := (nc + pes - 1) / pes
	if rng.Intn(2) == 0 {
		load++
	}
	g := New(2 + nc + pes)
	for c := 0; c < nc; c++ {
		g.AddEdge(0, 2+c, 1, 0)
		for p := 0; p < pes; p++ {
			g.AddEdge(2+c, 2+nc+p, 1, rng.Int63n(6))
		}
	}
	for p := 0; p < pes; p++ {
		g.AddEdge(2+nc+p, 1, int64(load), 0)
	}
	return g, 0, 1
}

// cyclicNet is an arbitrary network with mixed-sign costs; many draws hold
// a negative cycle, reachable from the source or not.
func cyclicNet(rng *rand.Rand) (*Graph, int, int) {
	n := 2 + rng.Intn(12)
	g := New(n)
	for k := rng.Intn(4 * n); k > 0; k-- {
		g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Int63n(4), rng.Int63n(12)-3)
	}
	return g, 0, n - 1
}

func checkOracle(t *testing.T, build network, trials int) {
	t.Helper()
	var failed, cycles int
	for seed := int64(0); seed < int64(trials); seed++ {
		g, s, snk := build(rand.New(rand.NewSource(seed)))
		o, _, _ := build(rand.New(rand.NewSource(seed)))
		flow, cost, err := g.MinCostMaxFlow(s, snk)
		oflow, ocost, oerr := o.oracleMinCostMaxFlow(s, snk)
		if flow != oflow || cost != ocost || err != oerr {
			t.Errorf("seed %d: MinCostMaxFlow = (%d, %d, %v), oracle (%d, %d, %v)", seed, flow, cost, err, oflow, ocost, oerr)
			failed++
		}
		if err == ErrNegativeCycle {
			cycles++
		}
		for id := 0; id < len(g.edges); id += 2 {
			if g.Flow(id) != o.Flow(id) {
				t.Errorf("seed %d: Flow(%d) = %d, oracle %d", seed, id, g.Flow(id), o.Flow(id))
				failed++
				break
			}
		}
		h, herr := g.Potentials()
		oh, oherr := o.oraclePotentials()
		if herr != oherr || !slices.Equal(h, oh) {
			t.Errorf("seed %d: Potentials = %v, %v; oracle %v, %v", seed, h, herr, oh, oherr)
			failed++
		}
		if failed > 5 {
			t.FailNow()
		}
	}
	t.Logf("%d networks, %d with a negative cycle on the path search", trials, cycles)
}

func TestOracleBalanceShaped(t *testing.T) { checkOracle(t, balanceNet, 400) }

func TestOraclePlaceShaped(t *testing.T) { checkOracle(t, placeNet, 400) }

func TestOracleNegativeCycles(t *testing.T) { checkOracle(t, cyclicNet, 1000) }

// TestOracleReusedGraph re-solves one graph after growing it, so the
// scratch buffers must follow the node count between calls.
func TestOracleReusedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, s, snk := placeNet(rng)
	o, _, _ := placeNet(rand.New(rand.NewSource(1)))
	for round := 0; round < 3; round++ {
		x, y := g.AddNode(), o.AddNode()
		g.AddEdge(s, x, 2, -1)
		g.AddEdge(x, snk, 2, 1)
		o.AddEdge(s, y, 2, -1)
		o.AddEdge(y, snk, 2, 1)
		flow, cost, err := g.MinCostMaxFlow(s, snk)
		oflow, ocost, oerr := o.oracleMinCostMaxFlow(s, snk)
		if flow != oflow || cost != ocost || err != oerr {
			t.Fatalf("round %d: (%d, %d, %v), oracle (%d, %d, %v)", round, flow, cost, err, oflow, ocost, oerr)
		}
		h, _ := g.Potentials()
		oh, _ := o.oraclePotentials()
		if !slices.Equal(h, oh) {
			t.Fatalf("round %d: Potentials %v, oracle %v", round, h, oh)
		}
	}
}
