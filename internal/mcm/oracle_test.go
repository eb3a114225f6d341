package mcm_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"staticpipe/internal/core"
	"staticpipe/internal/graph"
	"staticpipe/internal/mcm"
	"staticpipe/internal/progs"
)

// The oracle below is the analysis as it stood before the queue-based
// relaxation: binary search with full edge-list Bellman-Ford sweeps, in
// float and integer weights, and the same sweep for the critical-cycle
// potentials. It is kept only here, to pin MaxRatio and Critical to it.

var errOracleDeadlock = errors.New("oracle: zero-token cycle")

func oracleMaxRatio(n int, edges []mcm.Edge) (mcm.Result, error) {
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return mcm.Result{}, fmt.Errorf("mcm: edge %d->%d out of range (n=%d)", e.From, e.To, n)
		}
		if e.Tokens < 0 {
			return mcm.Result{}, fmt.Errorf("mcm: negative tokens on edge %d->%d", e.From, e.To)
		}
	}
	if !oracleHasCycle(n, edges, func(mcm.Edge) bool { return true }) {
		return mcm.Result{}, nil
	}
	if oracleHasCycle(n, edges, func(e mcm.Edge) bool { return e.Tokens == 0 }) {
		return mcm.Result{}, errOracleDeadlock
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
	positiveCycle := func(p, q int64) bool {
		w := make([]int64, len(edges))
		for i, e := range edges {
			w[i] = q*e.Latency - p*e.Tokens
		}
		return oracleHasPositiveCycle(n, edges, w)
	}

	lo, hi := 0.0, float64(totalLat)
	for i := 0; i < 80 && hi-lo > 0.5/float64(totalTok*totalTok+1); i++ {
		mid := (lo + hi) / 2
		if oraclePositiveCycleFloat(n, edges, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	num, den := oracleBestRational(lo, hi, totalTok)
	if positiveCycle(num, den) {
		return mcm.Result{}, fmt.Errorf("mcm: ratio verification failed (snapped too low: %d/%d)", num, den)
	}
	if num > 0 && !positiveCycle(num*den-1, den*den) {
		return mcm.Result{}, fmt.Errorf("mcm: ratio verification failed (snapped too high: %d/%d)", num, den)
	}
	g := oracleGCD(num, den)
	return mcm.Result{HasCycle: true, Num: num / g, Den: den / g}, nil
}

func oracleGCD(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func oracleHasCycle(n int, edges []mcm.Edge, keep func(mcm.Edge) bool) bool {
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

func oracleHasPositiveCycle(n int, edges []mcm.Edge, w []int64) bool {
	dist := make([]int64, n) // virtual source: dist 0 to every node
	for iter := 0; iter <= n; iter++ {
		changed := false
		for i, e := range edges {
			if nd := dist[e.From] + w[i]; nd > dist[e.To] {
				dist[e.To] = nd
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

func oraclePositiveCycleFloat(n int, edges []mcm.Edge, lambda float64) bool {
	dist := make([]float64, n)
	for iter := 0; iter <= n; iter++ {
		changed := false
		for _, e := range edges {
			w := float64(e.Latency) - lambda*float64(e.Tokens)
			if nd := dist[e.From] + w; nd > dist[e.To]+1e-12 {
				dist[e.To] = nd
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

func oracleBestRational(lo, hi float64, maxDen int64) (int64, int64) {
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
	p := int64((lo+hi)/2*float64(maxDen) + 0.5)
	return p, maxDen
}

func oracleCriticalNodes(n int, edges []mcm.Edge, r mcm.Result) []int {
	if !r.HasCycle {
		return nil
	}
	w := make([]int64, len(edges))
	for i, e := range edges {
		w[i] = r.Den*e.Latency - r.Num*e.Tokens
	}
	dist := make([]int64, n)
	for iter := 0; iter <= n; iter++ {
		changed := false
		for i, e := range edges {
			if nd := dist[e.From] + w[i]; nd > dist[e.To] {
				dist[e.To] = nd
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	adj := make([][]int, n) // tight-edge adjacency: node -> successor nodes
	for i, e := range edges {
		if dist[e.From]+w[i] == dist[e.To] {
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
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

// sameError reports whether err and the oracle's oerr are the same
// outcome: both nil, both a deadlock, or both other errors with equal text.
func sameError(err, oerr error) bool {
	switch {
	case err == nil || oerr == nil:
		return err == nil && oerr == nil
	case errors.Is(err, mcm.ErrDeadlock) || oerr == errOracleDeadlock:
		return errors.Is(err, mcm.ErrDeadlock) && oerr == errOracleDeadlock
	default:
		return err.Error() == oerr.Error()
	}
}

// checkEdges pins MaxRatio and CriticalNodes on one constraint graph and
// reports whether it has a cycle.
func checkEdges(t *testing.T, name string, n int, edges []mcm.Edge) bool {
	t.Helper()
	r, err := mcm.MaxRatio(n, edges)
	or, oerr := oracleMaxRatio(n, edges)
	if r != or || !sameError(err, oerr) {
		t.Fatalf("%s: MaxRatio = %v, %v; oracle %v, %v", name, r, err, or, oerr)
	}
	if err != nil {
		return false
	}
	if got, want := mcm.CriticalNodes(n, edges, r), oracleCriticalNodes(n, edges, or); !slices.Equal(got, want) {
		t.Fatalf("%s: CriticalNodes = %v, oracle %v", name, got, want)
	}
	return r.HasCycle
}

// randomMarked draws a marked graph: a random token-carrying ring skeleton
// plus chords, some with negative latency (stream-grid skew) and some
// with zero tokens. Acyclic draws keep only forward chords.
func randomMarked(rng *rand.Rand) (int, []mcm.Edge) {
	n := 1 + rng.Intn(24)
	var edges []mcm.Edge
	acyclic := rng.Intn(6) == 0
	if !acyclic {
		for v := 0; v < n; v++ {
			edges = append(edges, mcm.Edge{From: v, To: (v + 1) % n, Latency: 1 + rng.Int63n(3), Tokens: min(1, rng.Int63n(3))})
		}
	}
	for k := rng.Intn(3 * n); k > 0; k-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if acyclic && u >= v {
			continue
		}
		e := mcm.Edge{From: u, To: v, Latency: rng.Int63n(6) - 1, Tokens: 1 + rng.Int63n(2)}
		if rng.Intn(6) == 0 {
			e.Tokens = 0
		}
		if rng.Intn(5) == 0 {
			e.Latency = -1 - rng.Int63n(4) // skew
		}
		edges = append(edges, e)
	}
	return n, edges
}

func TestOracleRandomMarkedGraphs(t *testing.T) {
	var cyclic, deadlocked, acyclic int
	for seed := int64(0); seed < 3000; seed++ {
		n, edges := randomMarked(rand.New(rand.NewSource(seed)))
		_, err := mcm.MaxRatio(n, edges)
		switch {
		case checkEdges(t, fmt.Sprintf("seed %d", seed), n, edges):
			cyclic++
		case errors.Is(err, mcm.ErrDeadlock):
			deadlocked++
		default:
			acyclic++
		}
	}
	t.Logf("%d cyclic, %d deadlocked, %d acyclic or rejected", cyclic, deadlocked, acyclic)
	if cyclic == 0 || deadlocked == 0 || acyclic == 0 {
		t.Fatal("the draws miss a case")
	}
}

// checkGraph pins Critical on a compiled instruction graph.
func checkGraph(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	r, crit, err := mcm.Critical(g)
	x := g.ExpandFIFOs()
	edges := mcm.TimingEdges(x)
	or, oerr := oracleMaxRatio(x.NumNodes(), edges)
	var want []graph.NodeID
	if oerr == nil {
		for _, v := range oracleCriticalNodes(x.NumNodes(), edges, or) {
			want = append(want, graph.NodeID(v))
		}
	}
	if r != or || !sameError(err, oerr) || !slices.Equal(crit, want) {
		t.Fatalf("%s: Critical = %v, %v, %v; oracle %v, %v, %v", name, r, crit, err, or, want, oerr)
	}
}

// TestOracleCompiledPrograms pins Critical on the timing graphs of every
// bundled program and of seeded random programs, balanced and unbalanced.
func TestOracleCompiledPrograms(t *testing.T) {
	ps := []progs.Program{
		progs.Fig2(64), progs.Fig4(48), progs.Fig5(64), progs.Example1(32),
		progs.Example2(32), progs.Fig3(32), progs.Weather(40),
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20; i++ {
		ps = append(ps, progs.Random(rng, 6+rng.Intn(8)))
	}
	for i, p := range ps {
		for _, opts := range []core.Options{{}, {NoBalance: true}} {
			u, err := core.Compile(p.Source, opts)
			if err != nil {
				t.Fatalf("%d %s: %v\n%s", i, p.Name, err, p.Source)
			}
			checkGraph(t, fmt.Sprintf("%d %s nobalance=%v", i, p.Name, opts.NoBalance), u.Compiled.Graph)
		}
	}
}
