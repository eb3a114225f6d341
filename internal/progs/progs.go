// Package progs holds the paper's example programs and the synthetic
// workloads used by the benchmarks, the dfbench tool, and the runnable
// examples: the §3/Fig 2 scalar pipeline, the Fig 4 smoothing kernel, the
// Fig 5 conditional, Example 1 (Fig 6), Example 2 (Figs 7–8), their Fig 3
// composition, a multi-block "weather-style" physics kernel in the spirit
// of the application codes the authors analyzed [7], and a seeded
// generator of random pipe-structured programs for property tests.
package progs

import (
	"fmt"
	"math"

	"staticpipe/internal/value"
)

// Program couples a Val source with matching synthetic inputs and the name
// of its primary output.
type Program struct {
	Name   string
	Source string
	Inputs map[string][]value.Value
	Output string
}

func reals(n int, f func(i int) float64) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.R(f(i))
	}
	return out
}

// Fig2 is the §3 scalar pipeline example, lifted over n element pairs:
// let y = a*b in (y+2.)*(y-3.).
func Fig2(n int) Program {
	return Program{
		Name: "fig2",
		Source: fmt.Sprintf(`
param n = %d;
input A : array[real] [1, n];
input B : array[real] [1, n];
Y : array[real] :=
  forall i in [1, n]
    y : real := A[i]*B[i];
  construct (y + 2.)*(y - 3.)
  endall;
output Y;
`, n),
		Inputs: map[string][]value.Value{
			"A": reals(n, func(i int) float64 { return float64(i) * 0.5 }),
			"B": reals(n, func(i int) float64 { return 3 - float64(i)*0.25 }),
		},
		Output: "Y",
	}
}

// Fig4 is the array-selection expression of Fig 4:
// 0.25*(C[i-1] + 2.*C[i] + C[i+1]) over the interior indices.
func Fig4(m int) Program {
	return Program{
		Name: "fig4",
		Source: fmt.Sprintf(`
param m = %d;
input C : array[real] [0, m+1];
S : array[real] :=
  forall i in [1, m]
  construct 0.25 * (C[i-1] + 2.*C[i] + C[i+1])
  endall;
output S;
`, m),
		Inputs: map[string][]value.Value{
			"C": reals(m+2, func(i int) float64 { return math.Sin(float64(i) / 5) }),
		},
		Output: "S",
	}
}

// Fig5 is the §5 conditional example with a data-dependent condition.
func Fig5(n int) Program {
	return Program{
		Name: "fig5",
		Source: fmt.Sprintf(`
param n = %d;
input A : array[real] [1, n];
input B : array[real] [1, n];
input C : array[real] [1, n];
Y : array[real] :=
  forall i in [1, n]
  construct if C[i] > 0. then -(A[i] + B[i]) else 5.*(A[i]*B[i] + 2.) endif
  endall;
output Y;
`, n),
		Inputs: map[string][]value.Value{
			"A": reals(n, func(i int) float64 { return float64(i%11) - 5 }),
			"B": reals(n, func(i int) float64 { return float64(i%7) - 3 }),
			"C": reals(n, func(i int) float64 { return math.Cos(float64(i)) }),
		},
		Output: "Y",
	}
}

// Example1 is the paper's Example 1 (§4, compiled as Fig 6): boundary-
// conditioned smoothing followed by the B[i]*(P*P) accumulation.
func Example1(m int) Program {
	return Program{
		Name: "example1",
		Source: fmt.Sprintf(`
param m = %d;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i]*(P*P)
  endall;
output A;
`, m),
		Inputs: map[string][]value.Value{
			"B": reals(m+2, func(i int) float64 { return 1 + float64(i%5)/5 }),
			"C": reals(m+2, func(i int) float64 { return math.Sin(float64(i) / 3) }),
		},
		Output: "A",
	}
}

// Example2 is the paper's Example 2 (§4, compiled as Fig 7 or Fig 8): the
// first-order linear recurrence x_i = A_i·x_{i−1} + B_i.
func Example2(m int) Program {
	return Program{
		Name: "example2",
		Source: fmt.Sprintf(`
param m = %d;
input A : array[real] [1, m];
input B : array[real] [1, m];
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    let P : real := A[i]*T[i-1] + B[i]
    in if i < m then iter T := T[i: P]; i := i + 1 enditer
       else T[i: P] endif
    endlet
  endfor;
output X;
`, m),
		Inputs: map[string][]value.Value{
			"A": reals(m, func(i int) float64 { return 0.4 + 0.5*math.Sin(float64(i)) }),
			"B": reals(m, func(i int) float64 { return float64(i%6) - 2.5 }),
		},
		Output: "X",
	}
}

// Fig3 composes Example 1 and Example 2 into the pipe-structured program
// of Fig 3 (the Theorem 4 workload).
func Fig3(m int) Program {
	return Program{
		Name: "fig3",
		Source: fmt.Sprintf(`
param m = %d;
input B : array[real] [0, m+1];
input C : array[real] [0, m+1];
A : array[real] :=
  forall i in [0, m+1]
    P : real := if (i = 0) | (i = m+1) then C[i]
                else 0.25 * (C[i-1] + 2.*C[i] + C[i+1]) endif;
  construct B[i]*(P*P)
  endall;
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    let P : real := A[i]*T[i-1] + B[i]
    in if i < m then iter T := T[i: P]; i := i + 1 enditer
       else T[i: P] endif
    endlet
  endfor;
output X;
`, m),
		Inputs: map[string][]value.Value{
			"B": reals(m+2, func(i int) float64 { return 0.1 + float64(i%4)/10 }),
			"C": reals(m+2, func(i int) float64 { return math.Cos(float64(i) / 4) }),
		},
		Output: "X",
	}
}

// Weather is a multi-block 1-D advection–diffusion time step in the spirit
// of the application codes the authors analyzed [7]: smoothing, upwind
// flux, limiter, an implicit-sweep recurrence, and a final update — five
// blocks in an acyclic flow dependency graph, all primitive.
func Weather(m int) Program {
	return Program{
		Name: "weather",
		Source: fmt.Sprintf(`
param m = %d;
input U  : array[real] [0, m+1];   %% field at time t
input K  : array[real] [0, m+1];   %% diffusivity
D : array[real] :=                 %% diffusion term
  forall i in [1, m]
  construct K[i] * (U[i-1] - 2.*U[i] + U[i+1])
  endall;
F : array[real] :=                 %% upwind advective flux
  forall i in [1, m]
  construct if U[i] > 0. then U[i]*(U[i] - U[i-1]) else U[i]*(U[i+1] - U[i]) endif
  endall;
L : array[real] :=                 %% flux limiter
  forall i in [1, m]
  construct min(max(F[i], -0.5), 0.5)
  endall;
S : array[real] :=                 %% implicit sweep: s_i = 0.25 s_{i-1} + (D_i - L_i)
  for i : integer := 1; T : array[real] := [0: 0.]
  do
    if i < m then iter T := T[i: 0.25*T[i-1] + (D[i] - L[i])]; i := i + 1 enditer
    else T[i: 0.25*T[i-1] + (D[i] - L[i])] endif
  endfor;
V : array[real] :=                 %% updated field
  forall i in [1, m]
  construct U[i] + 0.1 * S[i]
  endall;
output V;
`, m),
		// A rapidly oscillating field keeps both arms of the upwind
		// conditional continuously busy — the steady-state regime in which
		// the Fig 5 construction reaches the maximum rate. (A slowly
		// varying field still computes correctly but pays an arm-pipeline
		// refill bubble at each sign change.)
		Inputs: map[string][]value.Value{
			"U": reals(m+2, func(i int) float64 { return math.Sin(float64(i) * 1.7) }),
			"K": reals(m+2, func(i int) float64 { return 0.1 + 0.05*math.Cos(float64(i)) }),
		},
		Output: "V",
	}
}

// Synth produces a deterministic synthetic input stream of the requested
// shape; the dfc and dfsim tools use it to fill declared inputs.
func Synth(kind string, n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		switch kind {
		case "sin":
			out[i] = value.R(math.Sin(float64(i) / 3))
		case "const":
			out[i] = value.R(1)
		case "alt":
			out[i] = value.R(float64(1 - 2*(i%2)))
		default: // ramp
			out[i] = value.R(float64(i))
		}
	}
	return out
}
