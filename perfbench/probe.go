package main

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host speed probe. On a shared host the same work costs a guest more
// or less CPU time from minute to minute: other tenants share the cores'
// sibling threads, caches and power budget, and the guest's CPU clock runs
// on regardless. On the 2-CPU host the benchmark was built on, one
// service-mix seed read 4.1 ms per job, and 1.9 ms fifteen minutes later,
// at no measurable steal. So while a set-up or a timed loop runs, a probe
// goroutine times a fixed reference kernel every probeEvery on its own
// locked thread's CPU clock, and the gated CPU figures are scaled by
// probeRef over the probe's median: they read as CPU time on a host where
// the kernel takes probeRef. The kernel is the benchmark's own code and
// the standard library's, so a change to the program can move it only by
// contending for the same CPUs or, through the kernel's JSON allocations,
// by changing how often the garbage collector drafts it into assist work.
const (
	probeEvery = 50 * time.Millisecond
	// probeRef is about the kernel's CPU time on the host the benchmark
	// was built on, run alone in a fast stretch; it sets the scale of the
	// figures.
	probeRef = time.Millisecond
)

// probeDoc is the kernel's JSON document, shaped like a job's streams.
type probeDoc struct {
	Name    string               `json:"name"`
	Values  []float64            `json:"values"`
	Streams map[string][]float64 `json:"streams"`
}

// probe runs the reference kernel periodically from start to stop.
type probe struct {
	table []uint64 // the kernel's random-access table
	keys  []uint32 // the kernel's sort input
	buf   []uint32 // the kernel's sort scratch
	doc   probeDoc
	sink  uint64

	mu      sync.Mutex
	samples []time.Duration // CPU time of each kernel run
	cpu     time.Duration   // their sum

	quit, done chan struct{}
}

func newProbe() *probe {
	rng := rand.New(rand.NewSource(1))
	p := &probe{table: make([]uint64, 1<<15), keys: make([]uint32, 2048), buf: make([]uint32, 2048),
		doc: probeDoc{Name: "probe", Values: make([]float64, 1024), Streams: map[string][]float64{}}}
	for i := range p.keys {
		p.keys[i] = rng.Uint32()
	}
	for i := range p.doc.Values {
		p.doc.Values[i] = rng.NormFloat64() * 1e3
	}
	for _, name := range []string{"a", "b", "c", "d"} {
		v := make([]float64, 128)
		for i := range v {
			v[i] = rng.Float64()
		}
		p.doc.Streams[name] = v
	}
	p.kernel() // the first run faults the table in and fills encoding/json's caches
	return p
}

// kernel is the fixed reference work, in two halves of about equal time on
// the build host. The first is a dependent chain of integer operations,
// random read-modify-writes in a 256 KiB table and two sorts of 2048 keys;
// it allocates nothing and tracks the host's speed steadily within a
// stretch, but a slow stretch slows it less than it slows the workloads
// (1.6× against 2.2× on the build host). The second, a JSON round trip of
// a stream-shaped document, allocates like the workloads do and slows with
// them across stretches, but reads noisier within one.
func (p *probe) kernel() {
	x := uint64(88172645463325252)
	for k := 0; k < 150_000; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	mask := uint64(len(p.table) - 1)
	for k := 0; k < 100_000; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.table[x&mask] += x
	}
	for k := 0; k < 2; k++ {
		copy(p.buf, p.keys)
		slices.Sort(p.buf)
	}
	b, err := json.Marshal(&p.doc)
	if err != nil {
		panic(err)
	}
	var d probeDoc
	if err := json.Unmarshal(b, &d); err != nil {
		panic(err)
	}
	p.sink += x + uint64(p.buf[len(p.buf)/2]) + uint64(len(d.Values))
}

// start launches the probe goroutine; the first kernel runs at once.
func (p *probe) start() {
	p.quit, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			c0 := threadCPU()
			p.kernel()
			d := threadCPU() - c0
			p.mu.Lock()
			p.samples = append(p.samples, d)
			p.cpu += d
			p.mu.Unlock()
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
}

// stop ends the probe goroutine and waits for it.
func (p *probe) stop() {
	close(p.quit)
	<-p.done
}

// probeMark is a point in the probe's record: its sample count and CPU
// time so far.
type probeMark struct {
	n   int
	cpu time.Duration
}

func (p *probe) mark() probeMark {
	p.mu.Lock()
	defer p.mu.Unlock()
	return probeMark{len(p.samples), p.cpu}
}

// since returns the probe's CPU time since m and its median kernel time
// over the samples since m, or over all samples when none were taken.
func (p *probe) since(m probeMark) (cpu, med time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.samples[m.n:]
	if len(s) == 0 {
		s = p.samples
	}
	s = append([]time.Duration(nil), s...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	if len(s) > 0 {
		med = s[len(s)/2]
	}
	return p.cpu - m.cpu, med
}

// scale returns the factor that converts CPU time read while the probe's
// median kernel time was med into CPU time at probeRef.
func scale(med time.Duration) float64 {
	return ratio(float64(probeRef), float64(med))
}

// threadCPU returns the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
