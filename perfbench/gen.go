package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"staticpipe/internal/value"
)

// program is one generated pipe-structured Val program with its input
// arrays. Everything in it is a pure function of the generator's seed.
type program struct {
	name   string
	source string
	inputs map[string][]value.Value
}

// seededInputs fills the named [0, m+1] input arrays with bounded reals;
// bounded magnitudes keep products tame across chained blocks.
func seededInputs(rng *rand.Rand, m int, names ...string) map[string][]value.Value {
	in := make(map[string][]value.Value, len(names))
	for _, name := range names {
		vals := make([]value.Value, m+2)
		for i := range vals {
			vals[i] = value.R((rng.Float64() - 0.5) * 1.8)
		}
		in[name] = vals
	}
	return in
}

// coef returns a seeded coefficient in ±[lo, hi) with two decimals, written
// as a Val real literal.
func coef(rng *rand.Rand, lo, hi float64) string {
	c := lo + rng.Float64()*(hi-lo)
	if rng.Intn(2) == 0 {
		c = -c
	}
	return fmt.Sprintf("%.2f", c)
}

// ladderProgram builds a ladder of k forall blocks over [1, m]: every block
// reads the previous two, so each rung closes a reconvergent pair of paths
// of unequal length and the balancer has a buffer to size at every level.
func ladderProgram(rng *rand.Rand, k, m int) program {
	var b strings.Builder
	fmt.Fprintf(&b, "param m = %d;\ninput A : array[real] [0, m+1];\ninput B : array[real] [0, m+1];\n", m)
	forall := func(name, body string) {
		fmt.Fprintf(&b, "%s : array[real] :=\n  forall i in [1, m]\n  construct %s\n  endall;\n", name, body)
	}
	forall("L0", "0.25 * (A[i-1] + 2.*A[i] + A[i+1])")
	forall("L1", fmt.Sprintf("%s * L0[i] + B[i]", coef(rng, 0.2, 0.5)))
	var kinds []int
	for s := 2; s < k; s++ {
		p, q := fmt.Sprintf("L%d[i]", s-1), fmt.Sprintf("L%d[i]", s-2)
		// Each run of four rungs takes every body kind once, in a seeded
		// order, so a ladder's size fixes its mix of kinds.
		if (s-2)%4 == 0 {
			kinds = rng.Perm(4)
		}
		var body string
		switch kinds[(s-2)%4] {
		case 0:
			body = fmt.Sprintf("%s * %s + %s * %s", coef(rng, 0.2, 0.45), p, coef(rng, 0.2, 0.45), q)
		case 1:
			body = fmt.Sprintf("if %s > %s then %s - %s else %s * %s endif",
				p, q, p, coef(rng, 0.1, 0.3), q, coef(rng, 0.3, 0.6))
		case 2:
			body = fmt.Sprintf("min(max(%s * %s + %s, -2.), 2.)", coef(rng, 0.3, 0.6), p, q)
		default:
			body = fmt.Sprintf("(%s - %s) * %s + %s", p, q, coef(rng, 0.2, 0.4), coef(rng, 0.1, 0.3))
		}
		forall(fmt.Sprintf("L%d", s), body)
	}
	fmt.Fprintf(&b, "output L%d;\n", k-1)
	return program{
		name:   fmt.Sprintf("ladder-%d", k),
		source: b.String(),
		inputs: seededInputs(rng, m, "A", "B"),
	}
}

// span is a generated array's name and inclusive index range.
type span struct {
	name   string
	lo, hi int64
}

// pipeProgram builds a random pipe-structured program of k blocks over two
// [0, m+1] inputs: foralls with conditional and let-bound bodies, and
// for-iter first-order recurrences. Each block narrows its primary
// source's range by one at each end, so m must exceed 2k+2.
func pipeProgram(rng *rand.Rand, k, m int) program {
	var b strings.Builder
	fmt.Fprintf(&b, "param m = %d;\ninput U : array[real] [0, m+1];\ninput W : array[real] [0, m+1];\n", m)
	avail := []span{{"U", 0, int64(m) + 1}, {"W", 0, int64(m) + 1}}
	last := ""
	for bi := 0; bi < k; bi++ {
		name := fmt.Sprintf("P%d", bi)
		// The newest wide-enough array is the primary source, so the
		// blocks chain into a pipeline rather than fanning out of U.
		var src span
		for j := len(avail) - 1; j >= 0; j-- {
			if avail[j].hi-avail[j].lo >= 4 {
				src = avail[j]
				break
			}
		}
		lo, hi := src.lo+1, src.hi-1
		if bi%3 == 1 {
			// The recurrence's multiplier is an input, below one in
			// magnitude, so the recurrence contracts at any stream length.
			a1 := []string{"U", "W"}[rng.Intn(2)]
			a2 := covering(rng, avail, lo, hi)
			fmt.Fprintf(&b, `%s : array[real] :=
  for i : integer := %d; T : array[real] := [%d: 0.]
  do
    let P : real := %s*%s[i]*T[i-1] + %s[i]
    in if i < %d then iter T := T[i: P]; i := i + 1 enditer
       else T[i: P] endif
    endlet
  endfor;
`, name, lo, lo-1, coef(rng, 0.2, 0.5), a1, a2, hi)
			avail = append(avail, span{name, lo - 1, hi})
		} else {
			body := pipeBody(rng, src, avail, lo, hi, 0)
			fmt.Fprintf(&b, "%s : array[real] :=\n  forall i in [%d, %d]\n  construct %s\n  endall;\n",
				name, lo, hi, body)
			avail = append(avail, span{name, lo, hi})
		}
		last = name
	}
	fmt.Fprintf(&b, "output %s;\n", last)
	return program{
		name:   fmt.Sprintf("pipe-%d", k),
		source: b.String(),
		inputs: seededInputs(rng, m, "U", "W"),
	}
}

// covering picks one of the three newest available arrays whose range
// covers [lo, hi]. Reaching no further back bounds how long a reconvergent
// path a read can close, so a program's buffering varies little with the
// seed.
func covering(rng *rand.Rand, avail []span, lo, hi int64) string {
	var ok []string
	for _, a := range avail {
		if a.lo <= lo && a.hi >= hi {
			ok = append(ok, a.name)
		}
	}
	ok = ok[max(0, len(ok)-3):]
	return ok[rng.Intn(len(ok))]
}

// pipeBody emits a random primitive expression over the primary source
// (offsets −1..1) and zero-offset reads of covering arrays, with
// conditionals, let bindings and clamps: two levels of operators over
// leaves, so bodies vary in kind but little in size.
func pipeBody(rng *rand.Rand, primary span, avail []span, lo, hi int64, depth int) string {
	leaf := func() string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%s[i%s]", primary.name, []string{"-1", "", "+1"}[rng.Intn(3)])
		case 1:
			return covering(rng, avail, lo, hi) + "[i]"
		case 2:
			return coef(rng, 0.05, 0.5)
		default:
			return "i * 0.01"
		}
	}
	sub := func() string { return pipeBody(rng, primary, avail, lo, hi, depth+1) }
	if depth >= 2 {
		return leaf()
	}
	switch rng.Intn(6) {
	case 0, 1, 2:
		op := []string{"+", "-", "*"}[rng.Intn(3)]
		return "(" + sub() + " " + op + " " + sub() + ")"
	case 3:
		cond := []string{
			fmt.Sprintf("i < %d", lo+(hi-lo)/2),
			fmt.Sprintf("%s[i] > 0.", primary.name),
			fmt.Sprintf("(i = %d) | (i = %d)", lo, hi),
		}[rng.Intn(3)]
		return "if " + cond + " then " + sub() + " else " + sub() + " endif"
	case 4:
		return "let v : real := " + sub() + " in (v * 0.5 + " + sub() + ") endlet"
	default:
		return "min(" + leaf() + ", max(" + leaf() + ", 0.))"
	}
}

// logUniform maps u in [0, 1) onto [lo, hi] log-uniformly, rounded.
func logUniform(u float64, lo, hi int) int {
	return int(math.Round(math.Exp(math.Log(float64(lo)) + u*(math.Log(float64(hi))-math.Log(float64(lo))))))
}
