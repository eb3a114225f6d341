package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded span: a call into one layer, or a phase the
// service reported about itself. Times are wall-clock Unix nanoseconds so
// spans from the benchmark's own clock reads and from the service's span
// API line up.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counters in memory for the traced run and writes
// them out when the benchmark ends. Every method is a no-op on a nil
// *tracer, so untraced runs pay a nil check per call site and nothing else.
type tracer struct {
	mu       sync.Mutex
	phase    string
	spans    []spanRec
	open     map[int64]int // span ID → index into spans while open
	counters map[string]map[string]float64
}

func newTracer() *tracer {
	return &tracer{open: map[int64]int{}, counters: map[string]map[string]float64{}}
}

// setPhase labels the spans and counters that follow ("setup", "loop").
func (t *tracer) setPhase(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = phase
	t.mu.Unlock()
}

// begin opens a span and returns its ID (0 on a nil tracer, which is also
// the "no parent" ID).
func (t *tracer) begin(name string, parent, job int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.open[id] = len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Job: job, Name: name, Phase: t.phase, Start: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[id]; ok {
		t.spans[i].End = now
		delete(t.open, id)
	}
}

// add records an already finished span, such as one the service reports
// through its span API, and returns its ID.
func (t *tracer) add(name string, parent, job int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Job: job, Name: name, Phase: t.phase,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// count adds n to a named counter of the current phase.
func (t *tracer) count(name string, n float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counters[t.phase]
	if c == nil {
		c = map[string]float64{}
		t.counters[t.phase] = c
	}
	c[name] += n
}

// layerTime is one layer's busy time and call count within a phase.
type layerTime struct {
	SelfNs int64 `json:"self_ns"`
	Calls  int   `json:"calls"`
}

// selfTimes sums each span name's self time over one phase: a span's
// duration minus the part of it that its children's intervals cover.
func (t *tracer) selfTimes(phase string) map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]spanRec{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		if s.Phase != phase || s.End == 0 {
			continue
		}
		lt := out[s.Name]
		lt.SelfNs += s.End - s.Start - covered(s, children[s.ID])
		lt.Calls++
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent spanRec, kids []spanRec) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// phaseCounters returns a copy of one phase's counters.
func (t *tracer) phaseCounters(phase string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for k, v := range t.counters[phase] {
		out[k] = v
	}
	return out
}

// writeFile dumps every span and counter as JSON.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans    []spanRec                     `json:"spans"`
		Counters map[string]map[string]float64 `json:"counters"`
	}{t.spans, t.counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
