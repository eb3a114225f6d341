package place_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"staticpipe/internal/core"
	"staticpipe/internal/place"
	"staticpipe/internal/progs"
)

// oraclePlanDigest is the digest of Plan's mappings over the programs of
// TestOraclePlanPinned, as produced by the full-sweep Bellman-Ford solver
// that package mincost's oracle tests keep. Placement breaks ties between
// equal-cost assignments by the solver's path order, so a solver that
// finds the same optimum along other paths changes this digest.
const oraclePlanDigest = "2626fb3e84ca0b2d461eb7f8c2c18936f4dca59cc1ccfe8e88b71cdbdf9ea732"

// TestOraclePlanPinned places every bundled program and seeded random
// programs on 4 and 8 PEs and pins each mapping, its cut costs and its
// round count to the digest above.
func TestOraclePlanPinned(t *testing.T) {
	ps := []progs.Program{
		progs.Fig2(16), progs.Fig4(16), progs.Fig5(16), progs.Example1(16),
		progs.Example2(16), progs.Fig3(16), progs.Weather(16),
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		ps = append(ps, progs.Random(rng, 6+rng.Intn(8)))
	}
	h := sha256.New()
	for i, p := range ps {
		u, err := core.Compile(p.Source, core.Options{})
		if err != nil {
			t.Fatalf("%d %s: %v", i, p.Name, err)
		}
		for _, pes := range []int{4, 8} {
			pl, err := place.Plan(u.Compiled.Graph, place.Options{PEs: pes})
			if err != nil {
				t.Fatalf("%d %s on %d PEs: %v", i, p.Name, pes, err)
			}
			fmt.Fprintln(h, i, p.Name, pes, pl.PE, pl.SeedCost, pl.Cost, pl.Rounds)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != oraclePlanDigest {
		t.Fatalf("placement digest %s, want %s", got, oraclePlanDigest)
	}
}
