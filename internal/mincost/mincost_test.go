package mincost

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaxFlowSimple(t *testing.T) {
	// s=0, t=3; two disjoint paths of capacity 2 and 3.
	g := New(4)
	g.AddEdge(0, 1, 2, 0)
	g.AddEdge(1, 3, 2, 0)
	g.AddEdge(0, 2, 3, 0)
	g.AddEdge(2, 3, 3, 0)
	flow, cost, err := g.MinCostMaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 5 || cost != 0 {
		t.Errorf("flow=%d cost=%d, want 5/0", flow, cost)
	}
}

func TestMinCostPrefersCheapPath(t *testing.T) {
	// Two paths s->t: cost 1 (cap 1) and cost 5 (cap 1). Flow of 2 must use
	// both; flow of 1 must use the cheap one.
	g := New(4)
	e1 := g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 3, 1, 0)
	e2 := g.AddEdge(0, 2, 1, 5)
	g.AddEdge(2, 3, 1, 0)
	flow, cost, err := g.MinCostMaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 2 || cost != 6 {
		t.Errorf("flow=%d cost=%d, want 2/6", flow, cost)
	}
	if g.Flow(e1) != 1 || g.Flow(e2) != 1 {
		t.Errorf("edge flows %d,%d, want 1,1", g.Flow(e1), g.Flow(e2))
	}
}

func TestReroutingThroughResidual(t *testing.T) {
	// Classic rerouting instance: the greedy first path must be partially
	// undone via the residual edge to reach max flow at min cost.
	g := New(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(0, 2, 1, 4)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(1, 3, 1, 5)
	g.AddEdge(2, 3, 1, 1)
	flow, cost, err := g.MinCostMaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 2 {
		t.Fatalf("flow=%d, want 2", flow)
	}
	// cheapest routing: 0-1-2-3 (3) + 0-2?-no cap... paths: 0-1-{2-3|3}, 0-2-3.
	// Options: {0-1-2-3, 0-2-3} infeasible (edge 2-3 cap 1). So 0-1-3 (6) +
	// 0-2-3 (5) = 11, or 0-1-2-3 (3) + 0-2-?: 2-3 saturated -> 11 is min.
	if cost != 11 {
		t.Errorf("cost=%d, want 11", cost)
	}
}

func TestNegativeCostEdges(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 2, -3)
	g.AddEdge(1, 2, 2, -2)
	flow, cost, err := g.MinCostMaxFlow(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 2 || cost != -10 {
		t.Errorf("flow=%d cost=%d, want 2/-10", flow, cost)
	}
}

func TestNegativeCycleDetected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1, 0)
	g.AddEdge(1, 2, 5, -2)
	g.AddEdge(2, 1, 5, 1) // 1->2->1 has cost -1, capacity > 0
	g.AddEdge(2, 3, 1, 0)
	_, _, err := g.MinCostMaxFlow(0, 3)
	if err != ErrNegativeCycle {
		t.Fatalf("err=%v, want ErrNegativeCycle", err)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 5, 1)
	g.AddEdge(2, 3, 5, 1)
	flow, cost, err := g.MinCostMaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 0 || cost != 0 {
		t.Errorf("flow=%d cost=%d, want 0/0", flow, cost)
	}
}

func TestAddNode(t *testing.T) {
	g := New(2)
	id := g.AddNode()
	if id != 2 || g.NumNodes() != 3 {
		t.Errorf("AddNode = %d, NumNodes = %d", id, g.NumNodes())
	}
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(2, 1, 1, 0)
	flow, _, err := g.MinCostMaxFlow(0, 1)
	if err != nil || flow != 1 {
		t.Errorf("flow=%d err=%v", flow, err)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	for i, f := range []func(){
		func() { g.AddEdge(0, 5, 1, 0) },
		func() { g.AddEdge(-1, 1, 1, 0) },
		func() { g.AddEdge(0, 1, -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestPotentialsReducedCosts verifies the dual property package balance
// relies on: after solving, every residual edge satisfies
// cost + h[u] − h[v] ≥ 0.
func TestPotentialsReducedCosts(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 3, -1)
	g.AddEdge(1, 2, 2, -1)
	g.AddEdge(0, 2, 1, -1)
	g.AddEdge(2, 3, 4, -2)
	g.AddEdge(1, 3, 1, 0)
	g.AddEdge(3, 4, 3, 0)
	if _, _, err := g.MinCostMaxFlow(0, 4); err != nil {
		t.Fatal(err)
	}
	h, err := g.Potentials()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.n; u++ {
		for _, id := range g.adj[u] {
			e := g.edges[id]
			if e.cap > 0 && e.cost+h[u]-h[e.to] < 0 {
				t.Errorf("residual edge %d->%d violates reduced cost: %d + %d - %d",
					u, e.to, e.cost, h[u], h[e.to])
			}
		}
	}
}

// Property: max flow from a single-source DAG equals min(total out-capacity
// of s, total in-capacity of t) when the middle is a complete bipartite
// layer with ample capacity.
func TestQuickBipartiteFlow(t *testing.T) {
	f := func(capsA, capsB []uint8) bool {
		if len(capsA) == 0 || len(capsB) == 0 || len(capsA) > 6 || len(capsB) > 6 {
			return true
		}
		n := 2 + len(capsA) + len(capsB)
		g := New(n)
		s, tt := 0, 1
		var sumA, sumB int64
		for i, c := range capsA {
			g.AddEdge(s, 2+i, int64(c), 0)
			sumA += int64(c)
		}
		for j, c := range capsB {
			g.AddEdge(2+len(capsA)+j, tt, int64(c), 1)
			sumB += int64(c)
		}
		for i := range capsA {
			for j := range capsB {
				g.AddEdge(2+i, 2+len(capsA)+j, 1<<20, 0)
			}
		}
		flow, cost, err := g.MinCostMaxFlow(s, tt)
		if err != nil {
			return false
		}
		want := sumA
		if sumB < want {
			want = sumB
		}
		return flow == want && cost == want // every unit pays exactly 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSolveScratchIsPerCall pins the solver's allocation profile: a solve
// allocates its scratch once, however many paths it augments.
func TestSolveScratchIsPerCall(t *testing.T) {
	const runs = 5
	graphs := make([]*Graph, runs+1)
	for i := range graphs {
		graphs[i], _, _ = placeNet(rand.New(rand.NewSource(9)))
	}
	next := 0
	var flow int64
	allocs := testing.AllocsPerRun(runs, func() {
		flow, _, _ = graphs[next].MinCostMaxFlow(0, 1)
		next++
	})
	if flow < 10 {
		t.Fatalf("only %d augmentations; the network is too small to tell", flow)
	}
	if allocs > 6 {
		t.Errorf("%.0f allocations for %d augmentations, want at most 6 per solve", allocs, flow)
	}
}
