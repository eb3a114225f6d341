package exec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// shardSweep is the worker-count sweep the determinism contract promises.
var shardSweep = []int{1, 2, 4, 8}

// parallelCases are graph builders covering every structural feature the
// engine handles: straight pipelines, reconvergence, rings with initial
// tokens, merges, gated destinations, and wide independent lanes.
func parallelCases() map[string]func() *graph.Graph {
	return map[string]func() *graph.Graph{
		"fig2": func() *graph.Graph {
			g, _ := fig2(48)
			return g
		},
		"wide": func() *graph.Graph { return wideBenchGraph(6, 24) },
		"reconvergent": func() *graph.Graph {
			g := graph.New()
			src := g.AddSource("in", value.Reals(ramp(40)))
			id1 := g.Add(graph.OpID, "")
			id2 := g.Add(graph.OpID, "")
			add := g.Add(graph.OpAdd, "")
			g.Connect(src, id1, 0)
			g.Connect(id1, id2, 0)
			g.Connect(id2, add, 0)
			g.Connect(src, add, 1)
			g.Connect(add, g.AddSink("out"), 0)
			return g
		},
		"ring": func() *graph.Graph {
			n := 20
			g := graph.New()
			gate := g.Add(graph.OpTGate, "gate")
			ctl := g.AddCtl("ctl", graph.Pattern{Body: []bool{true}, Repeat: n, Suffix: []bool{false}})
			g.Connect(ctl, gate, 0)
			prev := gate
			for i := 0; i < 3; i++ {
				id := g.Add(graph.OpID, "")
				g.Connect(prev, id, 0)
				prev = id
			}
			back := g.Connect(prev, gate, 1)
			g.SetInit(back, value.R(7))
			g.Connect(gate, g.AddSink("out"), 0)
			return g
		},
		"merge-gated": func() *graph.Graph {
			g := graph.New()
			a := g.AddSource("a", value.Ints([]int64{1, 2, 3, 4, 5}))
			add := g.Add(graph.OpAdd, "acc")
			merge := g.Add(graph.OpMerge, "m")
			mctl := g.AddCtl("mctl", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 5})
			sink := g.AddSink("x")
			g.Connect(mctl, merge, 0)
			g.Connect(add, merge, 1)
			g.SetLiteral(merge, 2, value.I(0))
			outGate := g.AddGate(merge)
			g.Connect(g.AddCtl("outctl", graph.Pattern{Prefix: []bool{false}, Body: []bool{true}, Repeat: 5}), merge, outGate)
			fbGate := g.AddGate(merge)
			g.Connect(g.AddCtl("fbctl", graph.Pattern{Body: []bool{true}, Repeat: 5, Suffix: []bool{false}}), merge, fbGate)
			g.Connect(a, add, 0)
			g.ConnectGated(merge, fbGate, add, 1)
			g.ConnectGated(merge, outGate, sink, 0)
			return g
		},
		"fifo": func() *graph.Graph {
			g := graph.New()
			src := g.AddSource("in", value.Reals(ramp(32)))
			f := g.AddFIFO("buf", 5)
			g.Connect(src, f, 0)
			g.Connect(f, g.AddSink("out"), 0)
			return g
		},
	}
}

func requireSameResult(t *testing.T, name string, p int, seq, par *Result) {
	t.Helper()
	if seq.Cycles != par.Cycles {
		t.Errorf("%s P=%d: cycles %d, sequential %d", name, p, par.Cycles, seq.Cycles)
	}
	if !reflect.DeepEqual(seq.Firings, par.Firings) {
		t.Errorf("%s P=%d: firing counts diverge", name, p)
	}
	if !reflect.DeepEqual(seq.Outputs, par.Outputs) {
		t.Errorf("%s P=%d: outputs diverge\nseq: %v\npar: %v", name, p, seq.Outputs, par.Outputs)
	}
	if !reflect.DeepEqual(seq.Arrivals, par.Arrivals) {
		t.Errorf("%s P=%d: arrival streams diverge", name, p)
	}
	if seq.Clean != par.Clean {
		t.Errorf("%s P=%d: clean %v, sequential %v", name, p, par.Clean, seq.Clean)
	}
	if !reflect.DeepEqual(seq.Stalled, par.Stalled) {
		t.Errorf("%s P=%d: stall diagnostics diverge\nseq: %v\npar: %v", name, p, seq.Stalled, par.Stalled)
	}
}

// TestShardedMatchesSequential is the package-level half of the
// determinism contract: every observable Result field is byte-identical
// to a one-worker run for any worker count.
func TestShardedMatchesSequential(t *testing.T) {
	for name, build := range parallelCases() {
		seq, err := Run(build(), Options{})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, p := range shardSweep {
			par, err := Run(build(), Options{Workers: p})
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			requireSameResult(t, name, p, seq, par)
			if p > 1 && len(par.Shards) == 0 {
				t.Errorf("%s P=%d: no shard stats on a sharded run", name, p)
			}
			if p > 1 {
				cells, firings := 0, 0
				for _, s := range par.Shards {
					cells += s.Cells
					firings += int(s.Firings)
				}
				wantF := 0
				for _, f := range par.Firings {
					wantF += f
				}
				if cells != par.Graph.NumNodes() || firings != wantF {
					t.Errorf("%s P=%d: shard stats don't cover the run: cells=%d/%d firings=%d/%d",
						name, p, cells, par.Graph.NumNodes(), firings, wantF)
				}
			}
		}
	}
}

// recorder keeps the verbatim event stream for byte-level comparison.
type recorder struct {
	meta   trace.Meta
	events []trace.Event
}

func (r *recorder) Start(m trace.Meta) { r.meta = m }
func (r *recorder) Emit(e trace.Event) { r.events = append(r.events, e) }

// TestShardedTraceByteIdentical pins the replay path: the structured
// event stream and the debug-callback sequence of a sharded run must
// equal the sequential ones event for event.
func TestShardedTraceByteIdentical(t *testing.T) {
	for name, build := range parallelCases() {
		var seqRec recorder
		var seqLines []string
		seqTrace := func(cycle int, n *graph.Node, out value.Value) {
			seqLines = append(seqLines, fmt.Sprintf("%d %s %v", cycle, n.Name(), out))
		}
		if _, err := Run(build(), Options{Tracer: &seqRec, Trace: seqTrace}); err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, p := range []int{2, 4} {
			var parRec recorder
			var parLines []string
			parTrace := func(cycle int, n *graph.Node, out value.Value) {
				parLines = append(parLines, fmt.Sprintf("%d %s %v", cycle, n.Name(), out))
			}
			if _, err := Run(build(), Options{Workers: p, Tracer: &parRec, Trace: parTrace}); err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			if !reflect.DeepEqual(seqRec.meta, parRec.meta) {
				t.Errorf("%s P=%d: trace metadata diverges", name, p)
			}
			if !reflect.DeepEqual(seqRec.events, parRec.events) {
				t.Errorf("%s P=%d: event streams diverge (%d vs %d events)",
					name, p, len(seqRec.events), len(parRec.events))
				for i := range seqRec.events {
					if i >= len(parRec.events) || seqRec.events[i] != parRec.events[i] {
						t.Errorf("  first divergence at event %d: seq=%+v", i, seqRec.events[i])
						if i < len(parRec.events) {
							t.Errorf("  par=%+v", parRec.events[i])
						}
						break
					}
				}
			}
			if !reflect.DeepEqual(seqLines, parLines) {
				t.Errorf("%s P=%d: debug-callback lines diverge", name, p)
			}
		}
	}
}

// TestShardedPartialResult pins the MaxCycles path: the partial result's
// observable fields stay byte-identical, the error matches, and the
// sharded run adds shard/ring diagnostics naming where work was pending.
func TestShardedPartialResult(t *testing.T) {
	build := parallelCases()["wide"]
	seq, seqErr := Run(build(), Options{MaxCycles: 9})
	if seqErr == nil {
		t.Fatal("sequential run unexpectedly quiesced in 9 cycles")
	}
	for _, p := range []int{2, 4} {
		par, parErr := Run(build(), Options{MaxCycles: 9, Workers: p})
		if parErr == nil {
			t.Fatalf("P=%d: run unexpectedly quiesced", p)
		}
		if seqErr.Error() != parErr.Error() {
			t.Errorf("P=%d: error %q, sequential %q", p, parErr, seqErr)
		}
		requireSameResult(t, "partial", p, seq, par)
		if len(par.ShardDiag) == 0 {
			t.Fatalf("P=%d: partial sharded result carries no shard diagnostics", p)
		}
		joined := strings.Join(par.ShardDiag, "\n")
		if !strings.Contains(joined, "shard 0:") || !strings.Contains(joined, "pending at halt") {
			t.Errorf("P=%d: shard diagnostics don't name shards: %q", p, joined)
		}
		if !strings.Contains(Describe(par), "shard-diag:") {
			t.Errorf("P=%d: Describe omits the shard diagnostics", p)
		}
	}
}

// TestShardedWithLiveTelemetry attaches the concurrent telemetry stack to
// a sharded run (the configuration the race detector must bless) and
// checks the per-shard progress counters are live and consistent.
func TestShardedWithLiveTelemetry(t *testing.T) {
	build := parallelCases()["wide"]
	seq, err := Run(build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog := &trace.Progress{}
	par, err := Run(build(), Options{Workers: 4, Tracer: trace.NewLive(), Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "telemetry", 4, seq, par)
	shards := prog.Shards()
	if len(shards) != 4 {
		t.Fatalf("progress exposes %d shard counter blocks, want 4", len(shards))
	}
	var fired int64
	for _, sc := range shards {
		fired += sc.Firings.Load()
		if sc.Cycles.Load() == 0 {
			t.Error("a shard reported zero completed cycles")
		}
	}
	var want int64
	for _, f := range par.Firings {
		want += int64(f)
	}
	if fired != want {
		t.Errorf("live firing counters sum to %d, want %d", fired, want)
	}
}

// TestShardedWorkerClamp: more workers than cells must degrade to fewer
// shards (or one worker) without changing results.
func TestShardedWorkerClamp(t *testing.T) {
	g := graph.New()
	src := g.AddSource("in", value.Reals(ramp(8)))
	g.Connect(src, g.AddSink("out"), 0)
	seq, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(g, Options{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "clamp", 16, seq, par)
}
