package main

import (
	"fmt"
	"math/rand"
	"time"

	"staticpipe/internal/place"
	"staticpipe/internal/progs"
	"staticpipe/internal/value"
)

// Engine axes a sim-stream job can take.
const (
	axisScalar = iota
	axisBatch
	axisSharded
	axisMachine
	numAxes
)

const (
	simBatch   = 8           // lanes of a batched run
	simWorkers = 2           // shards of a sharded run
	simCycle   = 4 * numAxes // jobs per round: each program on each axis
)

// streamProg is one of the paper's programs, compiled, prepared for both
// cores and placed, with its pool of input sets.
type streamProg struct {
	name  string
	b     *build
	place *place.Placement
	pool  []inputSet
}

// simStream runs the paper's programs at long streams across every engine
// axis; set-up leaves nothing for the timed loop to compile.
type simStream struct {
	progs []*streamProg
	order []int // seeded order of the program × axis pairs in a round
	rng   *rand.Rand
	picks []int // input-set index per job, drawn lazily in job order
}

// simLength returns sim-stream's stream length.
func simLength(tiny bool) int {
	if tiny {
		return 24
	}
	return 2048
}

func setupSimStream(seed int64, tiny bool, tr *tracer) (instance, error) {
	m := simLength(tiny)
	rng := rand.New(rand.NewSource(seed))
	s := &simStream{}
	for _, p := range []progs.Program{progs.Fig3(m), progs.Weather(m), progs.Example1(m), progs.Example2(m)} {
		b, err := compileChecked(p.Name, p.Source, tr)
		if err != nil {
			return nil, err
		}
		sp := &streamProg{name: p.Name, b: b}
		if _, err := b.machinePrepared(tr, 0, -1); err != nil {
			return nil, fmt.Errorf("%s: machine prepare: %w", p.Name, err)
		}
		if sp.place, err = planPlacement(b.res.Graph, tr, 0, -1); err != nil {
			return nil, fmt.Errorf("%s: placement: %w", p.Name, err)
		}
		// One input set per lane of a batched run.
		if sp.pool, err = inputPool(rng, p.Name, p.Source, simBatch); err != nil {
			return nil, err
		}
		s.progs = append(s.progs, sp)
	}
	s.order = rng.Perm(len(s.progs) * numAxes)
	s.rng = rng
	return s, nil
}

// pick returns job i's input-set index; draws are made in job order so
// they are the same for a seed however far a loop gets.
func (s *simStream) pick(i int) int {
	for len(s.picks) <= i {
		s.picks = append(s.picks, s.rng.Intn(simBatch))
	}
	return s.picks[i]
}

func (s *simStream) job(pass, i int, tr *tracer) outcome {
	slot := s.order[i%len(s.order)]
	p, axis := s.progs[slot/numAxes], slot%numAxes
	set := s.pick(i)
	in := p.pool[set]
	jobID := int64(i)
	root := tr.begin("job", 0, jobID)
	defer tr.end(root)

	start := time.Now()
	var o outcome
	switch axis {
	case axisMachine:
		mp, err := p.b.machinePrepared(tr, root, jobID)
		if err != nil {
			return outcome{err: err}
		}
		res, err := runMachine(mp, p.place, tr, root, jobID, in.inputs)
		o.latency = time.Since(start)
		if err != nil {
			return outcome{err: fmt.Errorf("%s machine: %w", p.name, err)}
		}
		o.cycles = int64(res.Cycles)
		o.err = compareAll(res.Output, in.want)
	default:
		layer, workers, batch := "exec.scalar", 0, 0
		var lanes []map[string][]value.Value
		switch axis {
		case axisBatch:
			layer, batch = "exec.batch", simBatch
			lanes = make([]map[string][]value.Value, simBatch)
			for l := 1; l < simBatch; l++ {
				lanes[l] = p.pool[(set+l)%len(p.pool)].inputs
			}
		case axisSharded:
			layer, workers = "exec.sharded", simWorkers
		}
		res, err := p.b.runExec(tr, layer, root, jobID, workers, batch, in.inputs, lanes)
		o.latency = time.Since(start)
		if err != nil {
			return outcome{err: fmt.Errorf("%s %s: %w", p.name, layer, err)}
		}
		if tr != nil {
			tr.count("exec.firings", float64(firings(res)))
		}
		o.cycles = laneCycles(res)
		for l := 0; l < max(res.Batch, 1) && o.err == nil; l++ {
			o.err = compareAll(res.Lane(l).Output, p.pool[(set+l)%len(p.pool)].want)
		}
	}
	if o.err != nil {
		o.err = fmt.Errorf("%s axis %d: %w", p.name, axis, o.err)
	}
	return o
}

func (s *simStream) static() det {
	var d det
	for _, p := range s.progs {
		d.BufferStages += p.b.stages()
		d.GraphCells += p.b.cells()
	}
	return d
}

func (s *simStream) checkTraced() error               { return nil }
func (s *simStream) beginLoop()                       {}
func (s *simStream) loopCounters() map[string]float64 { return nil }
func (s *simStream) close() error                     { return nil }
