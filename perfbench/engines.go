package main

import (
	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/graph"
	"staticpipe/internal/machine"
	"staticpipe/internal/place"
	"staticpipe/internal/value"
)

// pes is the processing-element count of every machine-core run.
const pes = 8

// runExec runs b on the firing-rule core, scalar or batched, sequential or
// sharded. Untraced runs go through the artifact API; traced runs call the
// prepared graph directly inside a span named layer.
func (b *build) runExec(tr *tracer, layer string, parent, job int64, workers, batch int,
	inputs map[string][]value.Value, lanes []map[string][]value.Value) (*exec.Result, error) {
	if b.art != nil {
		bind := core.Binding{Workers: workers, Batch: batch}
		if batch > 1 {
			br, err := b.art.RunBatch(bind, inputs, lanes)
			if err != nil {
				return nil, err
			}
			return br.Exec, nil
		}
		rr, err := b.art.Run(bind, inputs)
		if err != nil {
			return nil, err
		}
		return rr.Exec, nil
	}
	sp := tr.begin(layer, parent, job)
	res, err := b.prep.Run(exec.Options{Workers: workers, Batch: batch, Inputs: inputs, LaneInputs: lanes})
	tr.end(sp)
	return res, err
}

// firings sums every lane's cell firings of an exec run.
func firings(res *exec.Result) int64 {
	var n int64
	lanes := max(res.Batch, 1)
	for l := 0; l < lanes; l++ {
		for _, f := range res.Lane(l).Firings {
			n += int64(f)
		}
	}
	return n
}

// laneCycles sums the simulated cycles of every lane of an exec run.
func laneCycles(res *exec.Result) int64 {
	var n int64
	lanes := max(res.Batch, 1)
	for l := 0; l < lanes; l++ {
		n += int64(res.Lane(l).Cycles)
	}
	return n
}

// planPlacement computes the contention-aware min-cost placement of g.
func planPlacement(g *graph.Graph, tr *tracer, parent, job int64) (*place.Placement, error) {
	sp := tr.begin("place.plan", parent, job)
	pl, err := place.Plan(g, place.Options{PEs: pes})
	tr.end(sp)
	return pl, err
}

// runMachine runs the packet-level core under an explicit placement.
func runMachine(mp *machine.Prepared, pl *place.Placement, tr *tracer, parent, job int64,
	inputs map[string][]value.Value) (*machine.Result, error) {
	sp := tr.begin("machine.run", parent, job)
	res, err := mp.Run(machine.Config{PEs: pes, Assign: machine.Placed, Placement: pl.PE, Inputs: inputs})
	tr.end(sp)
	if res != nil {
		tr.count("machine.cycles", float64(res.Cycles))
		tr.count("machine.packets", float64(res.TotalPackets))
	}
	return res, err
}
