package staticpipe

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"staticpipe/internal/progs"
)

// TestFacadeQuickstart exercises the public API end to end, as the README
// quick start does.
func TestFacadeQuickstart(t *testing.T) {
	src, inputs := example1Program(12)
	u, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := u.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !FullyPipelined(res, "A") {
		t.Errorf("II = %v", res.II("A"))
	}
	if err := u.Validate(inputs, 1e-9); err != nil {
		t.Fatal(err)
	}
	ii, err := PredictII(u)
	if err != nil {
		t.Fatal(err)
	}
	if ii != 2 {
		t.Errorf("predicted II = %v", ii)
	}
	a := res.Outputs["A"]
	if got := Floats(a.Elems); len(got) != 14 {
		t.Errorf("A has %d elements", len(got))
	}
}

func TestFacadeMachine(t *testing.T) {
	src, inputs := fig2Program(32)
	u, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mres, err := RunMachine(u, inputs, MachineConfig{PEs: 4, AMs: 2})
	if err != nil {
		t.Fatal(err)
	}
	eres, err := u.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	mv, ev := mres.Output("Y"), eres.Outputs["Y"].Elems
	if len(mv) != len(ev) {
		t.Fatalf("machine %d vs exec %d outputs", len(mv), len(ev))
	}
	for i := range ev {
		if mv[i] != ev[i] {
			t.Errorf("Y[%d]: machine %v, exec %v", i, mv[i], ev[i])
		}
	}
}

// TestRunMachineConcurrent runs one Unit on the machine simulator from
// several goroutines at once, each with its own inputs: RunMachine binds
// inputs per run and never writes the shared compiled graph, so every run
// must match an exec run of its own inputs.
func TestRunMachineConcurrent(t *testing.T) {
	src, base := fig2Program(24)
	u, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 6
	inputs := make([]map[string][]Value, runs)
	want := make([][]Value, runs)
	for k := range inputs {
		a := Floats(base["A"])
		for i := range a {
			a[i] *= float64(k + 1)
		}
		inputs[k] = map[string][]Value{"A": Reals(a), "B": base["B"]}
		res, err := u.Run(inputs[k])
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res.Outputs["Y"].Elems
	}
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for k := range inputs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			mres, err := RunMachine(u, inputs[k], MachineConfig{PEs: 4, AMs: 2})
			if err != nil {
				errs <- err
				return
			}
			got := mres.Output("Y")
			if len(got) != len(want[k]) {
				errs <- fmt.Errorf("run %d: %d outputs, want %d", k, len(got), len(want[k]))
				return
			}
			for i := range got {
				if got[i] != want[k][i] {
					errs <- fmt.Errorf("run %d: Y[%d] = %v, want %v", k, i, got[i], want[k][i])
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The inputs argument is the one binding: a second one in the config
	// is refused rather than silently overriding or being overridden.
	_, err = RunMachine(u, inputs[0], MachineConfig{PEs: 4, AMs: 2, Inputs: inputs[1]})
	if err == nil || !strings.Contains(err.Error(), "cfg.Inputs must be nil") {
		t.Errorf("RunMachine with cfg.Inputs set: err = %v, want refusal", err)
	}
}

func TestFacadeSchemeConstants(t *testing.T) {
	src, inputs := example2Program(16)
	todd, err := Compile(src, Options{ForIterScheme: ForIterTodd})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(src, Options{ForIterScheme: ForIterComp})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := todd.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := comp.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if rt.II("X") != 3 || rc.II("X") != 2 {
		t.Errorf("II todd=%v companion=%v", rt.II("X"), rc.II("X"))
	}
}

// TestFacadeEmptyInputs checks the degenerate zero-length binding through
// the public API: a clean length error, not a hang or panic.
func TestFacadeEmptyInputs(t *testing.T) {
	src, _ := example1Program(12)
	u, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Run(map[string][]Value{"C": {}}); err == nil {
		t.Error("zero-length input stream accepted")
	}
}

// TestFacadePassOptions drives an explicit pass list with per-pass
// verification through the public API.
func TestFacadePassOptions(t *testing.T) {
	names := PassNames()
	if len(names) < 5 {
		t.Fatalf("pass registry too small: %v", names)
	}
	src, inputs := example1Program(12)
	u, err := Compile(src, Options{Passes: "dedup,balance", VerifyEach: true})
	if err != nil {
		t.Fatal(err)
	}
	var stats []PassStat = u.PassStats()
	if len(stats) != 2 || stats[0].Name != "dedup" || stats[1].Name != "balance" {
		t.Fatalf("pass stats = %v", stats)
	}
	if err := u.Validate(inputs, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeValueHelpers(t *testing.T) {
	vs := Ints([]int64{1, 2})
	if vs[1].AsInt() != 2 {
		t.Error("Ints")
	}
	fs := Floats(Reals([]float64{1.5}))
	if fs[0] != 1.5 {
		t.Error("Floats round trip")
	}
}

// TestTestdataCorpus compiles and validates every .val program shipped in
// testdata/ with synthetic inputs — the same files the dfc and dfsim tools
// are documented against.
func TestTestdataCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/*.val")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			u, err := Compile(string(src), Options{})
			if err != nil {
				t.Fatal(err)
			}
			inputs := map[string][]Value{}
			for _, in := range u.Checked.Inputs {
				inputs[in.Name] = progs.Synth("sin", in.Len())
			}
			if err := u.Validate(inputs, 1e-9); err != nil {
				t.Fatal(err)
			}
		})
	}
}
