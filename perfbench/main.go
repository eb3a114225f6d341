// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed in a closed loop, checks every job's outputs against
// the reference interpreter (val.Interp), and prints the end-to-end
// metrics — or, with --trace 1, the per-layer metrics of a traced run — as
// the last line of its output. BENCHMARK.json at the repository root lists
// the workloads and metrics; README.md in this directory maps each layer
// metric to the end-to-end metric and workload it should move.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sim-stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workload is one named traffic shape.
type workload struct {
	name    string
	clients int
	cycle   int // jobs per round of the mix; the first round is the fixed job list
	setups  int // set-ups per untraced run; setup_s is their median
	setup   func(seed int64, tiny bool, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"sim-stream", 1, simCycle, 5, setupSimStream},
	{"compile-fresh", 1, freshPool, 9, setupCompileFresh},
	{"service-mix", svcClients, deckSize, 5, setupServiceMix},
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // tiny program sizes; the tests set it
	outDir   string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: sim-stream, compile-fresh or service-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's programs and inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of each timed loop in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and prints the per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench-records"), "directory for span dumps and determinism records")
	flag.Parse()
	o.trace = traceFlag == 1

	res, rec, err := run(o)
	if rec != nil {
		if b, err := json.Marshal(map[string]any{"record": rec}); err == nil {
			fmt.Println(string(b))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res == nil {
		os.Exit(2)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation. A nil result means nothing was
// measured; a result with Correct unset means a check failed.
func run(o options) (*result, *record, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	d := time.Duration(o.seconds * float64(time.Second))
	rec := newRecord(o)
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	var tr *tracer
	setups := w.setups
	if o.trace {
		tr = newTracer()
		tr.setPhase("setup")
		setups = 1
	}
	// The host speed probe runs until the end (probe.go); its own CPU time
	// is taken out of every reading.
	pr := newProbe()
	pr.start()
	defer pr.stop()

	// Each set-up is timed on its own, on the process CPU clock; the last
	// one's instance runs the loops, and every set-up must fix the same
	// deterministic counts.
	var inst instance
	steal0, busy0 := hostSteal()
	setupMark := pr.mark()
	for k := 0; k < setups; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, rec, err
			}
			inst = nil
		}
		runtime.GC()
		m := pr.mark()
		start, cpu0 := time.Now(), processCPU()
		var err error
		inst, err = w.setup(o.seed, o.tiny, tr)
		if err != nil {
			return nil, rec, fmt.Errorf("set-up: %w", err)
		}
		probeCPU, _ := pr.since(m)
		rec.SetupSeconds = append(rec.SetupSeconds, (processCPU() - cpu0 - probeCPU).Seconds())
		rec.SetupWall = append(rec.SetupWall, time.Since(start).Seconds())
		if k > 0 && inst.static() != rec.Static {
			fail("set-up %d fixed %+v, set-up 0 fixed %+v", k, inst.static(), rec.Static)
		}
		rec.Static = inst.static()
	}
	steal1, busy1 := hostSteal()
	rec.SetupStealPct = 100 * ratio(steal1-steal0, busy1-busy0)
	_, setupProbe := pr.since(setupMark)
	rec.SetupProbeMs = durMs(setupProbe)
	defer func() {
		if err := inst.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close:", err)
		}
	}()

	// Return set-up garbage to the OS so the loop's resident-set peak is
	// the workload's own.
	debug.FreeOSMemory()
	stopRSS, peakRSS := make(chan struct{}), make(chan float64)
	go func() { peakRSS <- sampleRSS(stopRSS) }()
	loopMark := pr.mark()
	plain := runLoop(inst, 0, w.clients, w.cycle, d, nil)
	probeCPU, loopProbe := pr.since(loopMark)
	plain.cpu -= probeCPU
	rec.LoopProbeMs = durMs(loopProbe)
	close(stopRSS)
	rec.PeakRSSMB = <-peakRSS
	rec.addLoop("untraced", plain)
	attempted, failed := plain.attempted, plain.failed
	final := plain.det
	final.BufferStages += rec.Static.BufferStages
	final.GraphCells += rec.Static.GraphCells
	rec.Det = final

	var layers map[string]metric
	if o.trace {
		runtime.GC()
		tr.setPhase("loop")
		inst.beginLoop()
		traced := runLoop(inst, 1, w.clients, w.cycle, d, tr)
		counters := inst.loopCounters()
		rec.addLoop("traced", traced)
		attempted += traced.attempted
		failed += traced.failed
		if traced.det != plain.det {
			fail("traced fixed job list gave %+v, untraced %+v", traced.det, plain.det)
		}
		if err := inst.checkTraced(); err != nil {
			fail("%v", err)
		}
		rec.TraceOverhead = ratio(plain.jobsPerSec()-traced.jobsPerSec(), plain.jobsPerSec())
		layers = layerMetrics(tr, counters)
		rec.Layers = tr.selfTimes("loop")
		rec.SetupLayers = tr.selfTimes("setup")
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
		if err := tr.writeFile(path); err != nil {
			return nil, rec, fmt.Errorf("writing spans: %w", err)
		}
		rec.SpanFile = path
	}
	if failed > 0 {
		fail("%d of %d jobs failed: %s", failed, attempted, strings.Join(append(plain.firstErrs, rec.tracedErrs...), "; "))
	}
	// A run that failed records nothing, so a transient failure cannot
	// become the reference later runs of this build are held to.
	if err := checkDeterminism(o, final, len(problems) == 0); err != nil {
		fail("%v", err)
	}
	rec.FailRatio = ratio(float64(failed), float64(attempted))

	res := &result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed}
	if o.trace {
		res.Metrics = layers
	} else {
		res.Metrics = endToEnd(plain, rec, setupProbe, loopProbe)
	}
	if len(problems) > 0 {
		rec.Problems = problems
		return res, rec, errors.New(strings.Join(problems, "\n"))
	}
	return res, rec, nil
}

// endToEnd assembles the untraced run's end-to-end metrics. Times are on
// the process CPU clock, the probe's own time taken out, and scaled to the
// reference host speed by the probe's median kernel time over the same
// stretch (setupProbe over the set-ups, loopProbe over the loop); the raw
// readings and the wall-clock figures are in the run record.
func endToEnd(s loopStats, rec *record, setupProbe, loopProbe time.Duration) map[string]metric {
	return map[string]metric{
		"setup_s":        {median(rec.SetupSeconds) * scale(setupProbe), "s"},
		"cpu_ms_per_job": {s.cpuMsPerJob() * scale(loopProbe), "ms"},
		"peak_rss_mb":    {rec.PeakRSSMB, "MB"},
		"sim_cycles":     {float64(rec.Det.SimCycles), "cycles"},
		"buffer_stages":  {float64(rec.Det.BufferStages), "count"},
		"graph_cells":    {float64(rec.Det.GraphCells), "count"},
	}
}

// durMs converts a duration to milliseconds.
func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// layerMetrics assembles the traced loop's per-layer metrics from the span
// self times and the counters the loop accumulated.
func layerMetrics(tr *tracer, extra map[string]float64) map[string]metric {
	self := tr.selfTimes("loop")
	ctr := tr.phaseCounters("loop")
	ms := func(name string) float64 { return float64(self[name].SelfNs) / 1e6 }
	m := map[string]metric{}
	for _, name := range []string{
		"val.parse", "val.check", "pipestruct.lower", "balance.solve", "balance.apply", "place.plan",
		"exec.prepare", "exec.scalar", "exec.batch", "exec.sharded", "machine.prepare", "machine.run",
		"serve.handler", "serve.admission", "serve.queue_wait", "serve.run", "serve.poll",
	} {
		m[name+"_ms"] = metric{ms(name), "ms"}
	}
	m["serve.client_overhead_ms"] = metric{ms("serve.submit") + ms("serve.get"), "ms"}
	execMs := ms("exec.scalar") + ms("exec.batch") + ms("exec.sharded")
	m["exec.firings_per_s"] = metric{ratio(ctr["exec.firings"], execMs/1e3), "1/s"}
	m["machine.cycles_per_s"] = metric{ratio(ctr["machine.cycles"], ms("machine.run")/1e3), "1/s"}
	m["machine.packets"] = metric{ctr["machine.packets"], "count"}
	m["pipestruct.cells"] = metric{ctr["pipestruct.cells"], "count"}
	m["balance.stages"] = metric{ctr["balance.stages"], "count"}
	for _, name := range []string{"artifact.hit_ratio", "artifact.misses", "serve.fast_ratio", "serve.rejected"} {
		unit := "count"
		if strings.HasSuffix(name, "_ratio") {
			unit = "ratio"
		}
		m[name] = metric{extra[name], unit}
	}
	return m
}
