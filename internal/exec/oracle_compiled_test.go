package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/progs"
)

// TestEngineMatchesOracleCompiled holds compiler-shaped graphs to the
// sequential oracle: seeded random pipe-structured programs (forall and
// for-iter blocks with conditionals), compiled balanced, unbalanced and
// with literal control, each run to the end and cut at MaxCycles, at every
// worker and lane count. These graphs carry the merges, gates, control
// generators and gated destinations the hand-built oracle cases lack; the
// test fails if the sample stops reaching any of them, or stalls.
func TestEngineMatchesOracleCompiled(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 3
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"balanced", core.Options{}},
		{"unbalanced", core.Options{NoBalance: true}},
		{"literal-control", core.Options{LiteralControl: true}},
	}
	ops := map[graph.Op]bool{}
	gated, stalls, clean := false, false, false
	rng := rand.New(rand.NewSource(1983))
	for i := 0; i < n; i++ {
		p := progs.Random(rng, 6+rng.Intn(10))
		for _, v := range variants {
			a, err := core.CompileArtifact(p.Source, v.opts)
			if err != nil {
				t.Fatalf("program %d %s: %v\n%s", i, v.name, err, p.Source)
			}
			binds, err := a.BindInputs(p.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			g := a.Compiled.Graph
			for _, nd := range g.Nodes() {
				ops[nd.Op] = true
				for _, arc := range nd.Out {
					gated = gated || arc.Gate != graph.NoGate
				}
			}
			name := fmt.Sprintf("prog%d/%s", i, v.name)
			s, c := exec.CheckOracle(t, name, g, exec.Options{Inputs: binds})
			stalls, clean = stalls || s, clean || c
			exec.CheckOracle(t, name+"/partial", g, exec.Options{Inputs: binds, MaxCycles: 12})
		}
	}
	for _, op := range []graph.Op{graph.OpMerge, graph.OpTGate, graph.OpFGate, graph.OpCtlGen} {
		if !ops[op] {
			t.Errorf("compiled oracle cases contain no %v cell", op)
		}
	}
	if !gated || !stalls || !clean {
		t.Errorf("compiled oracle cases miss a path: gated destinations=%v stalls=%v clean=%v", gated, stalls, clean)
	}
}
