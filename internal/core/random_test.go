package core

import (
	"math/rand"
	"testing"

	"staticpipe/internal/progs"
	"staticpipe/internal/value"
)

// TestQuickRandomPrograms generates random pipe-structured programs —
// chains of forall and for-iter blocks over random primitive expressions —
// compiles each, and validates the compiled instruction graph element by
// element against the reference interpreter. This is the broadest property
// the reproduction can check: Theorems 1–4 composed on programs nobody
// hand-picked.
func TestQuickRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	for trial := 0; trial < 30; trial++ {
		src, inputs := randomProgram(rng, 12+rng.Intn(8))
		u, err := Compile(src, Options{})
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}
		if err := u.Validate(inputs, 1e-6); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
	}
}

// randomProgram draws a random pipe-structured program (progs.Random).
func randomProgram(rng *rand.Rand, m int) (string, map[string][]value.Value) {
	p := progs.Random(rng, m)
	return p.Source, p.Inputs
}
