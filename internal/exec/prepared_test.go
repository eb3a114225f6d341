package exec

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// TestPreparedInputsOverride pins the input-immutability contract:
// Options.Inputs rebinds a source cell's stream for one run without
// touching the graph, so the same Prepared serves different inputs from
// different runs — the binding half of the artifact-cache contract.
func TestPreparedInputsOverride(t *testing.T) {
	g, want := fig2(16)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}

	base, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range base.Output("out") {
		if v.AsReal() != want[i] {
			t.Fatalf("baseline out[%d] = %v, want %v", i, v, want[i])
		}
	}

	// Override stream a with all-ones; b keeps its compiled stream.
	ones := make([]float64, 16)
	bs := make([]float64, 16)
	for i := range ones {
		ones[i] = 1
		bs[i] = float64(2*i) - 3.25
	}
	over, err := p.Run(Options{Inputs: map[string][]value.Value{"a": value.Reals(ones)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range over.Output("out") {
		y := 1 * bs[i]
		if exp := (y + 2) * (y - 3); v.AsReal() != exp {
			t.Fatalf("override out[%d] = %v, want %v", i, v, exp)
		}
	}

	// The graph was not written: a plain run still sees the compiled
	// streams, byte for byte.
	again, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Outputs, base.Outputs) || again.Cycles != base.Cycles {
		t.Fatal("override leaked into the shared graph: baseline run changed")
	}
}

// TestPreparedUnknownInputLabel pins the validation error: an override
// naming no source cell is a caller bug, refused before the run starts.
func TestPreparedUnknownInputLabel(t *testing.T) {
	g, _ := fig2(4)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(Options{Inputs: map[string][]value.Value{"nope": value.Reals([]float64{1})}})
	if err == nil || !strings.Contains(err.Error(), `input "nope" names no source cell`) {
		t.Fatalf("err = %v, want unknown-label refusal", err)
	}
}

// TestPreparedPooledRunsIdentical pins reuse of one Prepared: repeated and
// concurrent runs share its decoded program and must stay byte-identical
// to the first run.
func TestPreparedPooledRunsIdentical(t *testing.T) {
	g, _ := fig2(32)
	p, err := Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 4; rep++ {
		res, err := p.Run(Options{})
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if !reflect.DeepEqual(res.Outputs, ref.Outputs) || res.Cycles != ref.Cycles ||
			!reflect.DeepEqual(res.Firings, ref.Firings) {
			t.Fatalf("rep %d: pooled run diverged from cold run", rep)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Run(Options{})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Outputs, ref.Outputs) || res.Cycles != ref.Cycles {
				errs <- fmt.Errorf("concurrent pooled run diverged from cold run")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Escape sinks for the per-sink allocations
// TestRunAllocsIndependentOfGraphSize measures.
var (
	allocOuts map[string][]value.Value
	allocArrs map[string][]Arrival
	allocCycs [][]int64
)

// TestRunAllocsIndependentOfGraphSize pins the decode-once contract: a run
// over a warm Prepared allocates only its own state, a fixed number of
// slices whatever the graph's size, so no per-cell decode is left on the
// run path. Per-sink result state is the one exception — each sink's
// value, cycle and arrival buffers, and the result maps, which Go
// allocates in more pieces past eight entries — so the pin measures that
// state for the same sink counts and stream lengths and takes it out.
func TestRunAllocsIndependentOfGraphSize(t *testing.T) {
	const n = 64
	runAllocs := func(g *graph.Graph) float64 {
		p, err := Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(Options{}); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := p.Run(Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	sinkAllocs := func(sinks int) float64 {
		labels := make([]string, sinks)
		for i := range labels {
			labels[i] = fmt.Sprint("out", i)
		}
		return testing.AllocsPerRun(20, func() {
			outs := make(map[string][]value.Value, sinks)
			arrs := make(map[string][]Arrival, sinks)
			cycs := make([][]int64, sinks)
			for i, l := range labels {
				outs[l] = make([]value.Value, 0, n)
				arrs[l] = make([]Arrival, n)
				cycs[i] = make([]int64, 0, n)
			}
			allocOuts, allocArrs, allocCycs = outs, arrs, cycs
		})
	}
	narrow, wide := runAllocs(wideBenchGraph(2, n)), runAllocs(wideBenchGraph(16, n))
	if a, b := narrow-sinkAllocs(2), wide-sinkAllocs(16); a != b {
		t.Errorf("run allocations grow with the graph: %v at 2 pipelines, %v at 16 (per-sink result state excluded)", a, b)
	}
	// Same sinks and sources, 32x the cells: no exclusion needed.
	if short, deep := runAllocs(cancelChain(n, 4)), runAllocs(cancelChain(n, 128)); short != deep {
		t.Errorf("run allocations grow with pipeline depth: %v at 4 stages, %v at 128", short, deep)
	}
}
