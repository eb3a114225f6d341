package main

import (
	"fmt"
	"math/rand"
	"time"

	"staticpipe/internal/val"
)

// freshCase is one compile-fresh program with its inputs, reference
// outputs, and the engine its job runs on.
type freshCase struct {
	prog    program
	want    map[string]*val.ArrayVal
	machine bool
}

// freshPool is the number of programs compile-fresh draws; one pass over
// them is a round of its mix.
const freshPool = 64

// splitRecord is the graph hash a traced compile split produced for src.
type splitRecord struct {
	src  string
	hash [32]byte
}

// compileFresh is the user who compiles a new program for every run: each
// job compiles a distinct program on a short stream, then runs it.
type compileFresh struct {
	cases  []freshCase
	splits []splitRecord // traced fixed-list compiles, checked after the loop
}

// ladderBlocks returns the range of ladder block counts.
func ladderBlocks(tiny bool) (lo, hi int) {
	if tiny {
		return 2, 6
	}
	return 8, 64
}

func setupCompileFresh(seed int64, tiny bool, _ *tracer) (instance, error) {
	n := freshPool
	lo, hi := ladderBlocks(tiny)
	rng := rand.New(rand.NewSource(seed))
	// Half the pool is ladders, half random pipe-structured programs,
	// alternating. Ladder j takes size class perm[j]: the midpoint of one of
	// n/2 equal steps of a log-uniform split of [lo, hi] blocks. The class
	// also fixes the ladder's stream length and whether it runs on the
	// machine core, so the pool's mix of sizes, lengths and engines is the
	// same for every seed and only the programs themselves vary; the cost
	// of a compile grows with about the cube of its size, so drawing sizes
	// would make the latency tail a draw too. One job in four runs the
	// placement and the machine core: every fourth size class, and every
	// fourth pipe.
	classes := n / 2
	perm := rng.Perm(classes)
	c := &compileFresh{}
	for k := 0; k < n; k++ {
		var (
			p       program
			machine bool
		)
		if j := k / 2; k%2 == 0 {
			class := perm[j]
			u := (float64(class) + 0.5) / float64(classes)
			p = ladderProgram(rng, logUniform(u, lo, hi), 16+(class*29)%49)
			machine = class%4 == 3
		} else {
			p = pipeProgram(rng, 3+j%6, 24+(j*17)%41)
			machine = j%4 == 3
		}
		want, err := reference(p.source, p.inputs)
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", p.name, err)
		}
		c.cases = append(c.cases, freshCase{prog: p, want: want, machine: machine})
	}
	return c, nil
}

func (c *compileFresh) job(_, i int, tr *tracer) outcome {
	fc := &c.cases[i%len(c.cases)]
	src := fc.prog.source
	jobID := int64(i)
	root := tr.begin("job", 0, jobID)
	defer tr.end(root)

	start := time.Now()
	b, err := compileProgram(src, tr, root, jobID)
	if err != nil {
		return outcome{err: fmt.Errorf("%s: compile: %w", fc.prog.name, err)}
	}
	o := outcome{stages: b.stages(), cells: b.cells()}
	if fc.machine {
		pl, err := planPlacement(b.res.Graph, tr, root, jobID)
		if err != nil {
			return outcome{err: fmt.Errorf("%s: placement: %w", fc.prog.name, err)}
		}
		mp, err := b.machinePrepared(tr, root, jobID)
		if err != nil {
			return outcome{err: err}
		}
		res, err := runMachine(mp, pl, tr, root, jobID, fc.prog.inputs)
		o.latency = time.Since(start)
		if err != nil {
			return outcome{err: fmt.Errorf("%s machine: %w", fc.prog.name, err)}
		}
		o.cycles = int64(res.Cycles)
		o.err = compareAll(res.Output, fc.want)
	} else {
		res, err := b.runExec(tr, "exec.scalar", root, jobID, 0, 0, fc.prog.inputs, nil)
		o.latency = time.Since(start)
		if err != nil {
			return outcome{err: fmt.Errorf("%s exec: %w", fc.prog.name, err)}
		}
		if tr != nil {
			tr.count("exec.firings", float64(firings(res)))
		}
		o.cycles = int64(res.Cycles)
		o.err = compareAll(res.Output, fc.want)
	}
	if o.err == nil && tr != nil && i < freshPool {
		h, err := graphHash(b)
		if err == nil {
			c.splits = append(c.splits, splitRecord{src, h})
		}
		o.err = err
	}
	if o.err != nil {
		o.err = fmt.Errorf("%s: %w", fc.prog.name, o.err)
	}
	return o
}

// checkTraced compares each traced fixed-list compile with
// core.CompileArtifact's graph, byte for byte.
func (c *compileFresh) checkTraced() error {
	for _, sr := range c.splits {
		if err := checkSplit(sr.src, sr.hash); err != nil {
			return err
		}
	}
	return nil
}

func (c *compileFresh) static() det                      { return det{} }
func (c *compileFresh) beginLoop()                       {}
func (c *compileFresh) loopCounters() map[string]float64 { return nil }
func (c *compileFresh) close() error                     { return nil }
