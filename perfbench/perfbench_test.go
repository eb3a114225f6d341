package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"staticpipe/internal/core"
	"staticpipe/internal/value"
)

// TestGeneratorsDeterministic pins that a seed fixes a generated program
// and its inputs exactly.
func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(*rand.Rand) program{
		"ladder": func(r *rand.Rand) program { return ladderProgram(r, 12, 20) },
		"pipe":   func(r *rand.Rand) program { return pipeProgram(r, 6, 24) },
	}
	for name, gen := range gens {
		a := gen(rand.New(rand.NewSource(7)))
		b := gen(rand.New(rand.NewSource(7)))
		c := gen(rand.New(rand.NewSource(8)))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two programs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same program", name)
		}
	}
}

// TestGeneratedProgramsMatchInterp compiles generated programs at tiny
// sizes and checks the compiled graph against the reference interpreter.
func TestGeneratedProgramsMatchInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 12; trial++ {
		for _, p := range []program{
			ladderProgram(rng, 2+rng.Intn(10), 16+rng.Intn(8)),
			pipeProgram(rng, 3+rng.Intn(6), 24+rng.Intn(8)),
		} {
			u, err := core.Compile(p.source, core.Options{})
			if err != nil {
				t.Fatalf("%s: compile: %v\n%s", p.name, err, p.source)
			}
			if err := u.Validate(p.inputs, tol); err != nil {
				t.Fatalf("%s: %v\n%s", p.name, err, p.source)
			}
		}
	}
}

// TestLogUniformRange pins the ladder size mapping's end points.
func TestLogUniformRange(t *testing.T) {
	if lo, hi := logUniform(0, 8, 64), logUniform(1, 8, 64); lo != 8 || hi != 64 {
		t.Fatalf("logUniform range [%d, %d], want [8, 64]", lo, hi)
	}
}

func samples(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// TestTailPercentileNeedsTenBeyond pins the reporting rule: a percentile is
// reported only with at least ten samples beyond it, so p95 needs 200.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	v, beyond := percentile(samples(200), 0.95)
	if v != 190 || beyond != 10 {
		t.Fatalf("p95 of 1..200 = %v with %d beyond, want 190 with 10", v, beyond)
	}
	if v, used := tailPercentile(samples(200), 0.95); used != 0.95 || v != 190 {
		t.Fatalf("200 samples: tail %v at p%v, want 190 at p0.95", v, used)
	}
	v, used := tailPercentile(samples(199), 0.95)
	if used >= 0.95 {
		t.Fatalf("199 samples reported p%v; p95 needs 200", used)
	}
	if _, beyond := percentile(samples(199), used); beyond < minBeyond {
		t.Fatalf("199 samples: p%v = %v has %d beyond", used, v, beyond)
	}
	if v, used := tailPercentile(samples(20), 0.95); used != 0.5 || v != 10 {
		t.Fatalf("20 samples: tail %v at p%v, want the median 10", v, used)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestProbe pins that the probe samples between start and stop, reports
// its own CPU time and median kernel time since a mark, and scales a
// reading by probeRef over that median.
func TestProbe(t *testing.T) {
	p := newProbe()
	p.start()
	m := p.mark()
	time.Sleep(3 * probeEvery)
	p.stop()
	cpu, med := p.since(m)
	if med <= 0 || cpu < med {
		t.Fatalf("probe since mark: cpu %v, median %v", cpu, med)
	}
	if got := scale(2 * probeRef); got != 0.5 {
		t.Fatalf("scale(2·probeRef) = %v, want 0.5", got)
	}
}

// TestSelfTime pins that a span's self time excludes the union of its
// children's intervals, overlaps counted once.
func TestSelfTime(t *testing.T) {
	parent := spanRec{Start: 0, End: 100}
	kids := []spanRec{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, e := range list {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmokeEveryWorkload runs each workload at tiny sizes, untraced and
// traced, and checks that it passes and prints exactly the metrics
// BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	spec := loadSpec(t)
	var listed []string
	for _, w := range workloads {
		listed = append(listed, w.name)
	}
	sort.Strings(listed)
	if got := names(spec.Workloads); !reflect.DeepEqual(got, listed) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, listed)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 1, seconds: 0.2, trace: traced, tiny: true, outDir: dir}
			res, rec, err := run(o)
			if err != nil || res == nil || !res.Correct {
				t.Fatalf("%s traced=%v: err %v, record %+v", w.name, traced, err, rec)
			}
			if res.Failed != 0 || res.Attempted < w.cycle {
				t.Fatalf("%s traced=%v: %d of %d failed (round %d)", w.name, traced, res.Failed, res.Attempted, w.cycle)
			}
			want := names(spec.EndToEnd)
			if traced {
				want = names(spec.PerLayer)
			}
			if got := keys(res.Metrics); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s traced=%v prints %v, BENCHMARK.json names %v", w.name, traced, got, want)
			}
		}
	}
}

// TestDeterminismGuard pins that a run whose deterministic metrics differ
// from an earlier run of the same seed fails.
func TestDeterminismGuard(t *testing.T) {
	o := options{workload: "sim-stream", seed: 4, tiny: true, outDir: t.TempDir()}
	d := det{SimCycles: 10, BufferStages: 2, GraphCells: 3}
	// A failed run's counts are not recorded.
	if err := checkDeterminism(o, det{}, false); err != nil {
		t.Fatal(err)
	}
	if err := checkDeterminism(o, d, true); err != nil {
		t.Fatalf("failed run's counts were recorded: %v", err)
	}
	if err := checkDeterminism(o, d, true); err != nil {
		t.Fatalf("same metrics rejected: %v", err)
	}
	d.SimCycles++
	if err := checkDeterminism(o, d, false); err == nil {
		t.Fatal("changed sim_cycles accepted")
	}
}

// TestCompareOutputFlagsMismatch pins that a value outside the tolerance,
// or a short stream, fails the output check.
func TestCompareOutputFlagsMismatch(t *testing.T) {
	p := ladderProgram(rand.New(rand.NewSource(2)), 4, 16)
	want, err := reference(p.source, p.inputs)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]value.Value(nil), want["L3"].Elems...)
	if err := compareOutput("L3", got, want); err != nil {
		t.Fatalf("reference rejected against itself: %v", err)
	}
	got[3] = value.R(got[3].AsReal() + 1e-6)
	if compareOutput("L3", got, want) == nil {
		t.Fatal("perturbed element accepted")
	}
	if compareOutput("L3", got[:5], want) == nil {
		t.Fatal("short stream accepted")
	}
}
