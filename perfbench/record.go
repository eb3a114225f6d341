package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// record is the run record printed before the result line: the host, the
// build, the seed, and everything behind the metrics.
type record struct {
	Workload      string               `json:"workload"`
	Seed          int64                `json:"seed"`
	Seconds       float64              `json:"seconds"`
	Traced        bool                 `json:"traced"`
	NProc         int                  `json:"nproc"`
	GOMAXPROCS    int                  `json:"gomaxprocs"`
	GoVersion     string               `json:"go_version"`
	CPUModel      string               `json:"cpu_model"`
	Commit        string               `json:"git_commit"`
	SetupSeconds  []float64            `json:"setup_cpu_s_samples"`
	SetupWall     []float64            `json:"setup_wall_s_samples"`
	SetupStealPct float64              `json:"setup_host_steal_pct"`
	SetupProbeMs  float64              `json:"setup_probe_ms"`
	LoopProbeMs   float64              `json:"loop_probe_ms"`
	Static        det                  `json:"setup_counts"`
	Det           det                  `json:"deterministic"`
	Loops         []loopRecord         `json:"loops"`
	FailRatio     float64              `json:"fail_ratio"`
	PeakRSSMB     float64              `json:"peak_rss_mb"`
	TraceOverhead float64              `json:"trace_overhead_jobs_per_s,omitempty"`
	Layers        map[string]layerTime `json:"layers,omitempty"`
	SetupLayers   map[string]layerTime `json:"setup_layers,omitempty"`
	SpanFile      string               `json:"span_file,omitempty"`
	Problems      []string             `json:"problems,omitempty"`

	tracedErrs []string
}

// loopRecord summarizes one timed loop, with each percentile's sample
// count and the percentile actually reported for the tail.
type loopRecord struct {
	Name        string  `json:"name"`
	Seconds     float64 `json:"elapsed_s"`
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	JobsPerSec  float64 `json:"jobs_per_s"`
	Samples     int     `json:"latency_samples"`
	P50Ms       float64 `json:"job_ms_p50"`
	P50Beyond   int     `json:"p50_samples_beyond"`
	TailMs      float64 `json:"job_ms_p95"`
	TailPct     float64 `json:"p95_percentile_used"`
	TailBeyond  int     `json:"p95_samples_beyond"`
	CPUSeconds  float64 `json:"process_cpu_s"`
	CPUMsPerJob float64 `json:"raw_cpu_ms_per_job"`
	StealPct    float64 `json:"host_steal_pct"`
	FixedJobDet det     `json:"fixed_job_list"`
}

func newRecord(o options) *record {
	return &record{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: commit(),
	}
}

func (r *record) addLoop(name string, s loopStats) {
	p50, b50 := percentile(s.latencies, 0.50)
	tail, used := tailPercentile(s.latencies, 0.95)
	_, bTail := percentile(s.latencies, used)
	r.Loops = append(r.Loops, loopRecord{
		Name: name, Seconds: s.elapsed.Seconds(), Attempted: s.attempted, Failed: s.failed,
		JobsPerSec: s.jobsPerSec(), Samples: len(s.latencies),
		P50Ms: p50, P50Beyond: b50, TailMs: tail, TailPct: used, TailBeyond: bTail,
		FixedJobDet: s.det, CPUSeconds: s.cpu.Seconds(), StealPct: s.stealPct,
		CPUMsPerJob: s.cpuMsPerJob(),
	})
	if name != "untraced" {
		r.tracedErrs = append(r.tracedErrs, s.firstErrs...)
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the VCS revision the binary was built from, when the
// build could stamp one (a build outside a git checkout cannot).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// hostSteal returns the host's cumulative steal ticks and the ticks its
// CPUs were busy or stolen from, from the aggregate line of /proc/stat.
// Idle and I/O-wait ticks are left out, so steal over busy is the share of
// the time the guest wanted to run that the hypervisor gave another guest.
func hostSteal() (steal, busy float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; guest time is
	// already in user.
	for i, f := range fields[1:min(len(fields), 9)] {
		v, _ := strconv.ParseFloat(f, 64)
		switch i {
		case 3, 4:
		case 7:
			steal = v
			busy += v
		default:
			busy += v
		}
	}
	return steal, busy
}

// rssSampleEvery is how often the resident set is sampled during a loop.
const rssSampleEvery = 5 * time.Millisecond

// rssMB returns the process's current resident set in MiB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// sampleRSS samples the resident set until stop is closed and returns the
// peak. The reference interpreter's garbage from set-up would otherwise
// set the process's high-water mark, so the peak is taken over the timed
// loop only.
func sampleRSS(stop <-chan struct{}) float64 {
	t := time.NewTicker(rssSampleEvery)
	defer t.Stop()
	peak := rssMB()
	for {
		select {
		case <-stop:
			return max(peak, rssMB())
		case <-t.C:
			peak = max(peak, rssMB())
		}
	}
}

// binaryHash identifies the running build, so determinism records from a
// different build of the program are never compared.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkDeterminism compares this run's deterministic metrics with those an
// earlier run of the same build, workload, seed and size recorded. When no
// earlier run did and save is set, it records them.
func checkDeterminism(o options, got det, save bool) error {
	build, err := binaryHash()
	if err != nil {
		return fmt.Errorf("determinism record: %w", err)
	}
	path := filepath.Join(o.outDir, "determinism",
		fmt.Sprintf("%s-%s-seed%d-tiny%t.json", build, o.workload, o.seed, o.tiny))
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var want det
		if err := json.Unmarshal(data, &want); err != nil {
			return fmt.Errorf("determinism record %s: %w", path, err)
		}
		if want != got {
			return fmt.Errorf("deterministic metrics %+v differ from an earlier run of this seed: %+v", got, want)
		}
		return nil
	case errors.Is(err, fs.ErrNotExist):
		if !save {
			return nil
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		b, _ := json.Marshal(got)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, b, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	default:
		return err
	}
}
