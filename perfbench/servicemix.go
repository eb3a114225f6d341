package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"staticpipe/internal/artifact"
	"staticpipe/internal/obs"
	"staticpipe/internal/progs"
	"staticpipe/internal/serve"
	"staticpipe/internal/telemetry"
	"staticpipe/internal/value"
)

// Request headers carrying trace context from the benchmark's client to
// its handler wrapper, and the wrapper's span ID back.
const (
	hdrParent  = "X-Perfbench-Parent"
	hdrJob     = "X-Perfbench-Job"
	hdrHandler = "X-Perfbench-Handler"
)

const (
	svcPool    = 4 // input sets per program
	svcBatch   = 4 // lanes of a batched job
	svcClients = 2
	deckSize   = 100 // jobs per shuffled round of the mix
	deckFresh  = 10  // fresh-salted jobs per round
	zipfS      = 1.2 // skew of the repeats over the warm programs
)

// svcProg is one program the service-mix clients submit.
type svcProg struct {
	name    string
	src     string
	machine bool
	pool    []inputSet
	b       *build
}

// svcJob is one scheduled request.
type svcJob struct {
	prog  int
	fresh bool
	model string
	batch int
	set   int
}

// serviceMix drives an in-process serve.Service over loopback HTTP with
// dfserve's defaults: a Zipf-skewed repeat mix over programs set-up warmed
// into the artifact cache, plus fresh-salted programs that miss it.
type serviceMix struct {
	progs  []*svcProg
	fresh  []int // programs fresh-salted jobs are made from
	cache  *artifact.Cache
	svc    *serve.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client

	deck []svcJob // one round of the mix, before shuffling

	mu    sync.Mutex
	rng   *rand.Rand
	sched []svcJob

	fast, offload, rejected atomic.Int64
	loopStart               artifact.Stats
	loopFast, loopOffload   int64
	loopRejected            int64
}

// svcPrograms lists the warm program set, most popular first. Admission
// runs a job inline when its estimated cost (cells × estimated cycles) is
// at most 1<<20 and queues it otherwise: the small programs run inline,
// the last ladders sit just below and just above that line, and batching
// bills a job 1.75× its scalar cost, so their batched variants queue. Only
// the small programs also go to the machine model, whose runs on the large
// ones would take seconds. Generated programs use a fixed structure seed,
// so only their inputs vary with the benchmark's seed.
func svcPrograms(tiny bool) []*svcProg {
	scale, blocks := func(m int) int { return m }, func(k int) int { return k }
	if tiny {
		scale = func(m int) int { return max(m/64, 12) }
		blocks = func(k int) int { return min(k, 6) }
	}
	rng := rand.New(rand.NewSource(1))
	paper := func(p progs.Program, machine bool) *svcProg {
		return &svcProg{name: p.Name, src: p.Source, machine: machine}
	}
	gen := func(p program, machine bool) *svcProg { return &svcProg{name: p.name, src: p.source, machine: machine} }
	return []*svcProg{
		paper(progs.Fig2(scale(64)), true),
		paper(progs.Fig5(scale(64)), true),
		paper(progs.Fig4(scale(128)), true),
		paper(progs.Example1(scale(128)), true),
		paper(progs.Example2(scale(128)), true),
		gen(pipeProgram(rng, 4, scale(48)), true),
		paper(progs.Fig3(scale(256)), true),
		paper(progs.Weather(scale(256)), true),
		gen(ladderProgram(rng, 8, scale(64)), true),
		paper(progs.Example1(scale(1024)), false),
		paper(progs.Weather(scale(1024)), false),
		gen(pipeProgram(rng, 8, scale(512)), false),
		gen(ladderProgram(rng, blocks(16), scale(256)), false),
		gen(ladderProgram(rng, blocks(48), 48), false),
		gen(ladderProgram(rng, blocks(64), 40), false),
		gen(ladderProgram(rng, blocks(72), 48), false),
	}
}

func setupServiceMix(seed int64, tiny bool, tr *tracer) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &serviceMix{fresh: []int{0, 1, 2, 5}}
	for _, p := range svcPrograms(tiny) {
		var err error
		if p.b, err = compileChecked(p.name, p.src, tr); err != nil {
			return nil, err
		}
		if p.pool, err = inputPool(rng, p.name, p.src, svcPool); err != nil {
			return nil, err
		}
		s.progs = append(s.progs, p)
	}
	s.rng = rng
	s.deck = buildDeck(s.progs, s.fresh)

	// dfserve's defaults: artifact cache on, pool = GOMAXPROCS, flight
	// recorder and SLO engine always on, a telemetry registry per job.
	s.cache = artifact.New(artifact.Config{MaxEntries: 256, MaxBytes: 256 << 20})
	reg := telemetry.NewRegistry().KeepFinished(telemetry.DefaultKeepFinished)
	s.svc = serve.New(serve.Config{
		Cache: s.cache, Flight: obs.NewFlight(0, 0, 0), SLO: serve.DefaultSLOs(), Registry: reg,
	})
	mux := telemetry.NewMuxHealth(reg, s.svc.HealthStats, s.svc.WriteMetrics)
	s.svc.Register(mux)
	var h http.Handler = mux
	if tr != nil {
		h = tracedHandler(mux, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: svcClients * 2}}

	// Warm every program in every variant the mix submits, so the timed
	// loop's repeats find their artifacts cached.
	for p := range s.progs {
		for _, v := range []svcJob{{model: serve.ModelExec}, {model: serve.ModelExec, batch: svcBatch}, {model: serve.ModelMachine}} {
			if v.model == serve.ModelMachine && !s.progs[p].machine {
				continue
			}
			v.prog = p
			if o := s.run(v, "", -1, nil); o.err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up %s: %w", s.progs[p].name, o.err)
			}
		}
	}
	return s, nil
}

// tracedHandler wraps the service mux in a span per request, parented to
// the client span named in the request and reported back in a header.
// Requests without a client span — warm-up and the benchmark's own span
// fetches — are not recorded.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		job, _ := strconv.ParseInt(r.Header.Get(hdrJob), 10, 64)
		sp := tr.begin("serve.handler", parent, job)
		w.Header().Set(hdrHandler, strconv.FormatInt(sp, 10))
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// buildDeck lays out one round of the mix: deckFresh fresh-salted jobs
// cycling over the fresh bases, and repeats whose per-program counts follow
// a Zipf law (largest remainders), most popular program first. Variants
// are dealt across the repeats in the ratio 6 exec : 2 batched exec :
// 2 machine (exec for programs kept off the machine model). The deck is
// the same for every seed; the seed shuffles each round and picks inputs.
func buildDeck(progs []*svcProg, fresh []int) []svcJob {
	warm := deckSize - deckFresh
	weights := make([]float64, len(progs))
	total := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipfS)
		total += weights[r]
	}
	counts := make([]int, len(progs))
	type rem struct {
		r    int
		frac float64
	}
	var rems []rem
	left := warm
	for r, w := range weights {
		exact := w / total * float64(warm)
		counts[r] = int(exact)
		left -= counts[r]
		rems = append(rems, rem{r, exact - float64(counts[r])})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for _, x := range rems[:left] {
		counts[x.r]++
	}
	variants := []svcJob{
		{model: serve.ModelExec}, {model: serve.ModelExec}, {model: serve.ModelExec, batch: svcBatch},
		{model: serve.ModelMachine}, {model: serve.ModelExec}, {model: serve.ModelExec},
		{model: serve.ModelExec, batch: svcBatch}, {model: serve.ModelExec}, {model: serve.ModelMachine},
		{model: serve.ModelExec},
	}
	var deck []svcJob
	for r, c := range counts {
		for k := 0; k < c; k++ {
			j := variants[len(deck)%len(variants)]
			if j.model == serve.ModelMachine && !progs[r].machine {
				j.model = serve.ModelExec
			}
			j.prog = r
			deck = append(deck, j)
		}
	}
	for k := 0; k < deckFresh; k++ {
		deck = append(deck, svcJob{prog: fresh[k%len(fresh)], fresh: true, model: serve.ModelExec})
	}
	return deck
}

// schedule returns job i's request: rounds of the deck, each in a seeded
// order with seeded input sets. Draws are made in job order under a lock,
// so they are the same for a seed whichever client takes a job.
func (s *serviceMix) schedule(i int) svcJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.sched) <= i {
		for _, k := range s.rng.Perm(len(s.deck)) {
			j := s.deck[k]
			j.set = s.rng.Intn(svcPool)
			s.sched = append(s.sched, j)
		}
	}
	return s.sched[i]
}

// response is one HTTP exchange's outcome.
type response struct {
	status  int
	body    []byte
	handler int64 // the handler wrapper's span ID (traced runs)
}

// do makes one request inside a client span named name.
func (s *serviceMix) do(method, path string, body []byte, tr *tracer, name string, parent, job int64) (response, error) {
	sp := tr.begin(name, parent, job)
	defer tr.end(sp)
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	if tr != nil {
		req.Header.Set(hdrParent, strconv.FormatInt(sp, 10))
		req.Header.Set(hdrJob, strconv.FormatInt(job, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, err
	}
	h, _ := strconv.ParseInt(resp.Header.Get(hdrHandler), 10, 64)
	return response{status: resp.StatusCode, body: data, handler: h}, nil
}

func streams(in map[string][]value.Value) map[string]serve.Stream {
	out := make(map[string]serve.Stream, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func (s *serviceMix) job(pass, i int, tr *tracer) outcome {
	j := s.schedule(i)
	salt := ""
	if j.fresh {
		salt = fmt.Sprintf("%% salt %d.%d\n", pass, i)
	}
	return s.run(j, salt, int64(i), tr)
}

// run submits one request and polls an offloaded job to its terminal
// state, then checks every lane's outputs against the references.
func (s *serviceMix) run(j svcJob, salt string, id int64, tr *tracer) outcome {
	p := s.progs[j.prog]
	spec := serve.Spec{Tenant: "bench", Source: p.src + salt, Inputs: streams(p.pool[j.set].inputs),
		Model: j.model, Batch: j.batch}
	if j.batch > 1 {
		spec.LaneInputs = make([]map[string]serve.Stream, j.batch)
		for l := 1; l < j.batch; l++ {
			spec.LaneInputs[l] = streams(p.pool[(j.set+l)%svcPool].inputs)
		}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return outcome{err: err}
	}

	root := tr.begin("job", 0, id)
	start := time.Now()
	resp, err := s.do(http.MethodPost, "/jobs", body, tr, "serve.submit", root, id)
	if err != nil {
		tr.end(root)
		return outcome{err: fmt.Errorf("%s: submit: %w", p.name, err)}
	}
	submitHandler := resp.handler
	switch resp.status {
	case http.StatusOK:
		s.fast.Add(1)
	case http.StatusAccepted:
		s.offload.Add(1)
	default:
		tr.end(root)
		if resp.status == http.StatusTooManyRequests || resp.status == http.StatusServiceUnavailable {
			s.rejected.Add(1)
		}
		return outcome{err: fmt.Errorf("%s: submit: HTTP %d: %s", p.name, resp.status, bytes.TrimSpace(resp.body))}
	}
	var view serve.JobView
	if err := json.Unmarshal(resp.body, &view); err != nil {
		tr.end(root)
		return outcome{err: fmt.Errorf("%s: submit response: %w", p.name, err)}
	}
	var poll int64
	if resp.status == http.StatusAccepted {
		poll = tr.begin("serve.poll", root, id)
		wait := 100 * time.Microsecond
		for !view.State.Terminal() {
			time.Sleep(wait)
			wait = min(2*wait, 2*time.Millisecond)
			resp, err = s.do(http.MethodGet, fmt.Sprintf("/jobs/%d", view.ID), nil, tr, "serve.get", poll, id)
			if err == nil && resp.status != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %s", resp.status, bytes.TrimSpace(resp.body))
			}
			if err == nil {
				err = json.Unmarshal(resp.body, &view)
			}
			if err != nil {
				tr.end(poll)
				tr.end(root)
				return outcome{err: fmt.Errorf("%s: poll job %d: %w", p.name, view.ID, err)}
			}
		}
		tr.end(poll)
	}
	o := outcome{latency: time.Since(start)}
	tr.end(root)

	if view.State != serve.StateDone || view.Result == nil {
		return outcome{err: fmt.Errorf("%s: job %d ended %s: %s", p.name, view.ID, view.State, view.Error)}
	}
	o.err = checkJobResult(view.Result, p, j)
	if o.err == nil {
		o.cycles = int64(view.Result.Cycles)
		if len(view.Result.Lanes) > 0 {
			o.cycles = 0
			for _, l := range view.Result.Lanes {
				o.cycles += int64(l.Cycles)
			}
		}
	}
	if tr != nil && o.err == nil {
		o.err = s.importSpans(view.ID, tr, id, submitHandler, poll)
	}
	if o.err != nil {
		o.err = fmt.Errorf("%s (%s, batch %d): %w", p.name, j.model, j.batch, o.err)
	}
	return o
}

// checkJobResult compares a finished job's outputs, every lane of a
// batched job included, with the references.
func checkJobResult(res *serve.JobResult, p *svcProg, j svcJob) error {
	views := []map[string]serve.Output{res.Outputs}
	if j.batch > 1 {
		if len(res.Lanes) != j.batch {
			return fmt.Errorf("%d lanes returned, want %d", len(res.Lanes), j.batch)
		}
		views = views[:0]
		for _, l := range res.Lanes {
			views = append(views, l.Outputs)
		}
	}
	for l, outs := range views {
		want := p.pool[(j.set+l)%svcPool].want
		for name, w := range want {
			got, ok := outs[name]
			if !ok {
				return fmt.Errorf("lane %d: output %s missing", l, name)
			}
			if got.Lo != w.Lo {
				return fmt.Errorf("lane %d: output %s starts at %d, reference at %d", l, name, got.Lo, w.Lo)
			}
			if err := compareOutput(name, got.Values, want); err != nil {
				return fmt.Errorf("lane %d: %w", l, err)
			}
		}
	}
	return nil
}

// importSpans fetches the job's span tree from the service's span API and
// records its admission, queue-wait and run phases: admission and a
// fast-path run under the submit handler, queue wait and an offloaded run
// under the client's polling span.
func (s *serviceMix) importSpans(jobID int64, tr *tracer, id, submitHandler, poll int64) error {
	resp, err := s.do(http.MethodGet, fmt.Sprintf("/jobs/%d/span", jobID), nil, nil, "", 0, id)
	if err != nil {
		return fmt.Errorf("span: %w", err)
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("span: HTTP %d", resp.status)
	}
	var root obs.SpanJSON
	if err := json.Unmarshal(resp.body, &root); err != nil {
		return fmt.Errorf("span: %w", err)
	}
	for _, c := range root.Children {
		end := c.Start.Add(time.Duration(c.DurSec * float64(time.Second)))
		switch c.Kind {
		case obs.KindAdmission:
			tr.add("serve.admission", submitHandler, id, c.Start, end)
		case obs.KindQueueWait:
			tr.add("serve.queue_wait", poll, id, c.Start, end)
		case obs.KindRun:
			parent := poll
			if poll == 0 {
				parent = submitHandler
			}
			tr.add("serve.run", parent, id, c.Start, end)
		}
	}
	return nil
}

func (s *serviceMix) static() det {
	var d det
	for _, p := range s.progs {
		d.BufferStages += p.b.stages()
		d.GraphCells += p.b.cells()
	}
	return d
}

func (s *serviceMix) checkTraced() error { return nil }

func (s *serviceMix) beginLoop() {
	s.loopStart = s.cache.Stats()
	s.loopFast, s.loopOffload, s.loopRejected = s.fast.Load(), s.offload.Load(), s.rejected.Load()
}

func (s *serviceMix) loopCounters() map[string]float64 {
	st := s.cache.Stats()
	hits := float64(st.Hits - s.loopStart.Hits)
	misses := float64(st.Misses - s.loopStart.Misses)
	coalesced := float64(st.Coalesced - s.loopStart.Coalesced)
	fast := float64(s.fast.Load() - s.loopFast)
	off := float64(s.offload.Load() - s.loopOffload)
	return map[string]float64{
		"artifact.hit_ratio": ratio(hits, hits+misses+coalesced),
		"artifact.misses":    misses,
		"serve.fast_ratio":   ratio(fast, fast+off),
		"serve.rejected":     float64(s.rejected.Load() - s.loopRejected),
	}
}

// close shuts the HTTP server and the service down and waits for both.
func (s *serviceMix) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.svc != nil {
		errs = append(errs, s.svc.Close(ctx))
	}
	return errors.Join(errs...)
}
