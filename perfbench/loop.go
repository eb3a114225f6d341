package main

import (
	"sort"
	"sync"
	"syscall"
	"time"
)

// outcome is what one job reports: its latency (the system's work only,
// not the benchmark's output check), whether its outputs matched the
// references, and its deterministic counts.
type outcome struct {
	latency time.Duration
	err     error
	cycles  int64 // simulated cycles, summed over lanes
	stages  int64 // balancing stages of a program compiled by this job
	cells   int64 // instruction cells of a program compiled by this job
}

// det holds the metrics that must repeat exactly for a seed.
type det struct {
	SimCycles    int64 `json:"sim_cycles"`
	BufferStages int64 `json:"buffer_stages"`
	GraphCells   int64 `json:"graph_cells"`
}

// instance is one set-up workload, ready to run jobs.
type instance interface {
	// job runs job i of the workload's seeded sequence. pass numbers the
	// timed loops of one process, so a workload whose jobs must not repeat
	// a program across loops can salt them.
	job(pass, i int, tr *tracer) outcome
	// static returns the deterministic counts fixed at set-up (zero for
	// workloads whose jobs compile).
	static() det
	// checkTraced runs after a traced loop: it fails if a compile split
	// the loop traced differs from core.CompileArtifact's graph.
	checkTraced() error
	// beginLoop snapshots the counters loopCounters reports deltas of.
	beginLoop()
	// loopCounters returns per-layer counts accumulated since beginLoop.
	loopCounters() map[string]float64
	// close stops everything the instance started and waits for it.
	close() error
}

// loopStats is one timed closed loop's result.
type loopStats struct {
	elapsed   time.Duration
	latencies []float64     // ms, sorted
	cpu       time.Duration // process CPU time over the loop
	stealPct  float64       // share of the host's busy CPU time stolen by the hypervisor during the loop
	attempted int
	failed    int
	firstErrs []string
	det       det // summed over the first round
}

// maxReportedErrs bounds how many failure messages a loop keeps.
const maxReportedErrs = 5

// runLoop drives a closed loop: clients goroutines each take the next job
// index and run it. Jobs run in whole rounds of cycle jobs, so every run
// measures the same mix; the loop stops at the first round boundary after
// d has passed. The first round is the fixed job list whose deterministic
// counts the loop sums.
func runLoop(inst instance, pass, clients, cycle int, d time.Duration, tr *tracer) loopStats {
	var (
		takeMu  sync.Mutex
		next    int
		done    bool
		mu      sync.Mutex
		st      loopStats
		wg      sync.WaitGroup
		start   = time.Now()
		cpu0    = processCPU()
		st0, t0 = hostSteal()
		stop    = start.Add(d)
	)
	take := func() (int, bool) {
		takeMu.Lock()
		defer takeMu.Unlock()
		if !done && next > 0 && next%cycle == 0 && time.Now().After(stop) {
			done = true
		}
		if done {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				o := inst.job(pass, i, tr)
				mu.Lock()
				st.attempted++
				if o.err != nil {
					st.failed++
					if len(st.firstErrs) < maxReportedErrs {
						st.firstErrs = append(st.firstErrs, o.err.Error())
					}
				} else {
					st.latencies = append(st.latencies, float64(o.latency.Nanoseconds())/1e6)
				}
				if i < cycle {
					st.det.SimCycles += o.cycles
					st.det.BufferStages += o.stages
					st.det.GraphCells += o.cells
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.cpu = processCPU() - cpu0
	st1, t1 := hostSteal()
	st.stealPct = 100 * ratio(st1-st0, t1-t0)
	sort.Float64s(st.latencies)
	return st
}

// processCPU returns the user and system CPU time the process has used.
// With paravirtual steal accounting, time the hypervisor gave another guest
// is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// verified is the number of jobs whose outputs matched.
func (s loopStats) verified() int { return s.attempted - s.failed }

// cpuMsPerJob is the process CPU time the loop spent per verified job.
func (s loopStats) cpuMsPerJob() float64 {
	return ratio(float64(s.cpu.Nanoseconds())/1e6, float64(s.verified()))
}

// jobsPerSec is the loop's verified-job throughput.
func (s loopStats) jobsPerSec() float64 {
	return float64(s.verified()) / s.elapsed.Seconds()
}
