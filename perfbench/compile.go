package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"

	"staticpipe/internal/balance"
	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/machine"
	"staticpipe/internal/passes"
	"staticpipe/internal/pipestruct"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// tol is the output tolerance the repository's own validation uses
// (core.Unit.Validate callers in dfsim and dfbench).
const tol = 1e-9

// build is one compiled program. Untraced runs hold the core.Artifact users
// get from core.CompileArtifact; traced runs hold the products of the
// public calls CompileArtifact is made of, each timed on its own.
type build struct {
	res  *pipestruct.Result
	art  *core.Artifact // untraced
	prep *exec.Prepared // traced
	mach *machine.Prepared
}

// stages is the number of balancing stages the compile inserted.
func (b *build) stages() int64 {
	if b.res.Plan == nil {
		return 0
	}
	return int64(b.res.Plan.Total)
}

// cells is the compiled graph's instruction-cell count.
func (b *build) cells() int64 { return int64(b.res.Graph.ComputeStats().Cells) }

// compileProgram compiles src: through core.CompileArtifact when tr is nil,
// otherwise through its public calls with a span around each.
func compileProgram(src string, tr *tracer, parent, job int64) (*build, error) {
	if tr == nil {
		art, err := core.CompileArtifact(src, core.Options{})
		if err != nil {
			return nil, err
		}
		return &build{res: art.Compiled, art: art}, nil
	}
	sp := tr.begin("val.parse", parent, job)
	prog, err := val.Parse(src)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("val.check", parent, job)
	checked, err := val.Check(prog)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// An empty pass list stops pipestruct after lowering; balancing then
	// runs as the two calls the default pass list would make.
	sp = tr.begin("pipestruct.lower", parent, job)
	res, err := pipestruct.Compile(checked, pipestruct.Options{Passes: []passes.Pass{}})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.count("pipestruct.cells", float64(res.Graph.NumNodes()))
	sp = tr.begin("balance.solve", parent, job)
	plan, err := balance.PlanGraph(res.Graph, true)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("balance.apply", parent, job)
	balance.Apply(res.Graph, plan)
	tr.end(sp)
	res.Plan = plan
	tr.count("balance.stages", float64(plan.Total))
	sp = tr.begin("exec.prepare", parent, job)
	prep, err := exec.Prepare(res.Graph)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &build{res: res, prep: prep}, nil
}

// machinePrepared returns the packet-level core's prepared graph, timing
// the preparation when traced.
func (b *build) machinePrepared(tr *tracer, parent, job int64) (*machine.Prepared, error) {
	if b.art != nil {
		return b.art.Machine()
	}
	if b.mach == nil {
		sp := tr.begin("machine.prepare", parent, job)
		mp, err := machine.Prepare(b.res.Graph)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		b.mach = mp
	}
	return b.mach, nil
}

// graphHash is the SHA-256 of the compiled graph's serialized form.
func graphHash(b *build) ([32]byte, error) {
	data, err := b.res.Graph.Marshal()
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(data), nil
}

// checkSplit recompiles src with core.CompileArtifact and fails unless its
// graph serializes to exactly the bytes of the traced split's graph.
func checkSplit(src string, split [32]byte) error {
	art, err := core.CompileArtifact(src, core.Options{})
	if err != nil {
		return err
	}
	want, err := graphHash(&build{res: art.Compiled})
	if err != nil {
		return err
	}
	if !bytes.Equal(want[:], split[:]) {
		return fmt.Errorf("traced compile split produced a graph that differs from core.CompileArtifact's")
	}
	return nil
}

// compileChecked compiles a set-up program; a traced compile split must
// produce exactly core.CompileArtifact's graph.
func compileChecked(name, src string, tr *tracer) (*build, error) {
	b, err := compileProgram(src, tr, 0, -1)
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	if tr != nil {
		h, err := graphHash(b)
		if err == nil {
			err = checkSplit(src, h)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return b, nil
}

// inputSet is one seeded binding of a program's inputs with its reference
// outputs.
type inputSet struct {
	inputs map[string][]value.Value
	want   map[string]*val.ArrayVal
}

// inputPool draws n seeded input sets for src and computes their
// references.
func inputPool(rng *rand.Rand, name, src string, n int) ([]inputSet, error) {
	pool := make([]inputSet, 0, n)
	for k := 0; k < n; k++ {
		in, err := randomInputs(rng, src)
		if err != nil {
			return nil, err
		}
		want, err := reference(src, in)
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", name, err)
		}
		pool = append(pool, inputSet{in, want})
	}
	return pool, nil
}

// reference evaluates src with the reference interpreter.
func reference(src string, inputs map[string][]value.Value) (map[string]*val.ArrayVal, error) {
	prog, err := val.Parse(src)
	if err != nil {
		return nil, err
	}
	checked, err := val.Check(prog)
	if err != nil {
		return nil, err
	}
	return val.Interp(checked, inputs)
}

// randomInputs binds every declared input of src to bounded seeded reals.
// Magnitudes below one keep the paper's recurrences (x_i = a_i·x_{i−1} + b_i)
// contracting at any stream length.
func randomInputs(rng *rand.Rand, src string) (map[string][]value.Value, error) {
	prog, err := val.Parse(src)
	if err != nil {
		return nil, err
	}
	checked, err := val.Check(prog)
	if err != nil {
		return nil, err
	}
	in := map[string][]value.Value{}
	for _, decl := range checked.Inputs {
		vals := make([]value.Value, decl.Len())
		for i := range vals {
			vals[i] = value.R((rng.Float64() - 0.5) * 1.8)
		}
		in[decl.Name] = vals
	}
	return in, nil
}

// compareOutput checks one output stream against its reference.
func compareOutput(name string, got []value.Value, want map[string]*val.ArrayVal) error {
	w, ok := want[name]
	if !ok {
		return fmt.Errorf("output %s has no reference", name)
	}
	if len(got) != len(w.Elems) {
		return fmt.Errorf("output %s: %d elements, reference has %d", name, len(got), len(w.Elems))
	}
	for i := range got {
		if !value.Close(got[i], w.Elems[i], tol) {
			return fmt.Errorf("output %s[%d] = %v, reference %v", name, w.Lo+int64(i), got[i], w.Elems[i])
		}
	}
	return nil
}

// compareAll checks every reference output against a run's outputs.
func compareAll(out func(name string) []value.Value, want map[string]*val.ArrayVal) error {
	for name := range want {
		if err := compareOutput(name, out(name), want); err != nil {
			return err
		}
	}
	return nil
}
