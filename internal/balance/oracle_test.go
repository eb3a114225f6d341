package balance

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// oracleSolveDigest is the digest of Solve's levels over the systems of
// TestOracleSolvePinned, as produced by the full-sweep Bellman-Ford solver
// that package mincost's oracle tests keep. Balancing reads its levels off
// the flow's potentials, so any change to the min-cost solver that moves
// a single level changes this digest.
const oracleSolveDigest = "fb0c73b46cc7eceda191dfac4581b58710982851ef63a69a06d12dc4ab99961f"

// TestOracleSolvePinned solves seeded random constraint systems — DAG
// constraints of weight 1–4, a sixth of them rigid, some draws with a
// rigid weight nudged past feasibility — and pins every level and every
// error to the digest above.
func TestOracleSolvePinned(t *testing.T) {
	h := sha256.New()
	var infeasible int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		level := make([]int64, n)
		for v := 1; v < n; v++ {
			level[v] = level[v-1] + 1 + rng.Int63n(4)
		}
		nudge := rng.Intn(8) == 0
		var cons []Constraint
		for v := 1; v < n; v++ {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				u := rng.Intn(v)
				c := Constraint{U: u, V: v, W: 1 + rng.Int63n(level[v]-level[u]), Rigid: rng.Intn(6) == 0}
				if c.Rigid {
					c.W = level[v] - level[u]
					if nudge && rng.Intn(3) == 0 {
						c.W++
					}
				}
				cons = append(cons, c)
			}
		}
		pi, err := Solve(n, cons)
		if err != nil {
			infeasible++
		}
		fmt.Fprintln(h, seed, pi, err)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != oracleSolveDigest {
		t.Fatalf("levels digest %s, want %s (%d infeasible systems)", got, oracleSolveDigest, infeasible)
	}
}
