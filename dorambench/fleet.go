package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doram"
	"doram/internal/cluster"
	"doram/internal/simsvc"
)

// Serve-fleet sizing (README.md explains the rules). About 3 requests in 4
// are fresh specs that simulate in ~6 ms; at 36 misses/s that keeps two
// simulation slots ~11% busy. The hot set plus the fresh specs of a window
// must fit the coordinator's cache, which caps the window at ~28 s.
const (
	fleetRate      = 48.0 // requests per second, open loop
	fleetHitShare  = 0.25
	fleetHotSet    = 8
	fleetTraceLen  = 100
	fleetNumNS     = 2
	fleetPollEvery = 10 * time.Millisecond
	fleetTimeout   = 30 * time.Second // per request, then it counts as failed
	fleetResample  = 6                // fresh specs re-fetched and re-simulated per run

	// fleetLimit is the latency limit of goodput (ops_per_s). BENCHMARK.json
	// states it in the workload's "why"; a test holds the two together.
	fleetLimit = 400 * time.Millisecond
)

var fleetBenchmarks = []string{"libq", "mummer", "comm4"}

// fleetReq is one planned request: when it is due, relative to the window's
// start, and the spec it submits.
type fleetReq struct {
	due  time.Duration
	hit  bool
	hot  int // index into the hot set when hit
	spec doram.Params
}

// specSeed derives a simulation seed for the i-th spec of a kind; distinct
// kinds and indices give distinct seeds.
func specSeed(seed uint64, kind string, i int) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], seed)
	binary.LittleEndian.PutUint64(buf[8:], uint64(i))
	h.Write(buf[:])
	h.Write([]byte(kind))
	return h.Sum64() | 1 // never 0, which a spec reads as "default"
}

func fleetSpec(bm string, seed uint64) doram.Params {
	ns := fleetNumNS
	return doram.Params{Scheme: doram.SchemeDORAM, Benchmark: bm, NumNS: &ns,
		TraceLen: fleetTraceLen, Seed: seed}
}

// hotSet is the specs warmed into the coordinator's cache in set-up.
func hotSet(seed uint64) []doram.Params {
	out := make([]doram.Params, fleetHotSet)
	for i := range out {
		out[i] = fleetSpec(fleetBenchmarks[i%len(fleetBenchmarks)], specSeed(seed, "hot", i))
	}
	return out
}

// fleetPlan is the seeded open-loop request plan for one window: a
// Poisson process at fleetRate conditioned on its count (so every window
// offers the same load), with exactly a quarter of the requests drawn from
// the hot set and the rest fresh specs. phase keeps the fresh specs of the
// two halves of a traced run apart.
func fleetPlan(seed uint64, phase int, window time.Duration) []fleetReq {
	rng := rand.New(rand.NewPCG(seed, 0xf1ee7+uint64(phase)))
	n := int(fleetRate*window.Seconds() + 0.5)
	plan := make([]fleetReq, n)
	for i := range plan {
		plan[i].due = time.Duration(rng.Int64N(int64(window)))
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].due < plan[j].due })
	hits := rng.Perm(n)[:int(float64(n)*fleetHitShare+0.5)]
	for _, i := range hits {
		plan[i].hit = true
	}
	fresh := 0
	hot := hotSet(seed)
	for i := range plan {
		if plan[i].hit {
			plan[i].hot = rng.IntN(len(hot))
			plan[i].spec = hot[plan[i].hot]
			continue
		}
		bm := fleetBenchmarks[rng.IntN(len(fleetBenchmarks))]
		plan[i].spec = fleetSpec(bm, specSeed(seed, fmt.Sprintf("fresh%d", phase), fresh))
		fresh++
	}
	return plan
}

// fleetTap times the fleet's internals in a traced run: coordinator →
// worker HTTP calls (its Transport) and simulations (the workers' RunSim).
// It records only while armed.
type fleetTap struct {
	base  http.RoundTripper
	armed atomic.Bool
	spans *spanLog

	mu   sync.Mutex
	c2w  map[string][]time.Duration // by call kind
	runs []time.Duration
}

func newFleetTap() *fleetTap {
	return &fleetTap{base: http.DefaultTransport.(*http.Transport).Clone(), c2w: map[string][]time.Duration{}}
}

// c2wKind names a coordinator → worker call by route; event streams are
// long-lived and not timed.
func c2wKind(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/events"):
		return ""
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "dispatch"
	case strings.HasSuffix(p, "/result"):
		return "fetch"
	case strings.HasSuffix(p, "/cancel"):
		return "cancel"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "poll"
	}
	return "other"
}

func (t *fleetTap) RoundTrip(r *http.Request) (*http.Response, error) {
	kind := c2wKind(r)
	if kind == "" || !t.armed.Load() {
		return t.base.RoundTrip(r)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	t1 := time.Now()
	t.spans.add("c2w."+kind, r.URL.Path, 0, t0, t1)
	t.mu.Lock()
	t.c2w[kind] = append(t.c2w[kind], t1.Sub(t0))
	t.mu.Unlock()
	return resp, err
}

func (t *fleetTap) runSim(ctx context.Context, cfg doram.SimConfig) (*doram.SimResult, error) {
	if !t.armed.Load() {
		return doram.SimulateContext(ctx, cfg)
	}
	t0 := time.Now()
	res, err := doram.SimulateContext(ctx, cfg)
	t1 := time.Now()
	t.spans.add("simsvc.RunSim", fmt.Sprintf("seed-%d", cfg.Seed), 0, t0, t1)
	t.mu.Lock()
	t.runs = append(t.runs, t1.Sub(t0))
	t.mu.Unlock()
	return res, err
}

// fleet is an in-process coordinator with doramd's defaults and two simsvc
// workers joined to it over loopback.
type fleet struct {
	url     string
	coord   *cluster.Coordinator
	workers []*simsvc.Service
	servers []*http.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// workerSlots splits nproc simulation slots over two workers.
func workerSlots(nproc int) []int {
	return []int{max(1, (nproc+1)/2), max(1, nproc/2)}
}

func startFleet(tap *fleetTap) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel}
	cfg := cluster.CoordinatorConfig{
		Logf:       func(string, ...any) {},
		EventFanIn: true, // as doramd -coordinator runs it
	}
	if tap != nil {
		cfg.Transport = tap
	}
	f.coord = cluster.NewCoordinator(cfg)
	url, err := f.serve(f.coord.Handler())
	if err != nil {
		f.stop()
		return nil, err
	}
	f.url = url
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.coord.Run(ctx)
	}()
	slots := workerSlots(runtime.NumCPU())
	for _, n := range slots {
		scfg := simsvc.Config{Workers: n, QueueDepth: 64, CacheEntries: 128,
			JobTimeout: 5 * time.Minute, MaxTraceLen: 2_000_000}
		if tap != nil {
			scfg.RunSim = tap.runSim
		}
		svc := simsvc.New(scfg)
		f.workers = append(f.workers, svc)
		wurl, err := f.serve(svc.Handler())
		if err != nil {
			f.stop()
			return nil, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			cluster.Join(ctx, cluster.JoinConfig{Coordinator: url, Advertise: wurl,
				Logf: func(string, ...any) {}})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for _, n := range f.coord.Nodes() {
			if n.Alive {
				alive++
			}
		}
		if alive == len(slots) {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet: %d of %d workers joined", alive, len(slots))
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("fleet: %w", err)
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop tears the fleet down and waits for every goroutine it started.
func (f *fleet) stop() {
	f.cancel()
	if f.coord != nil {
		f.coord.Shutdown()
	}
	for _, s := range f.servers {
		s.Close() // event streams never go idle, so no graceful Shutdown
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, w := range f.workers {
		w.Close(ctx) // nothing is running; an error would only repeat that
	}
	f.wg.Wait()
}

// client is the load generator's HTTP side: one caller, connections
// capped at nproc.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = runtime.NumCPU()
	tr.MaxIdleConnsPerHost = runtime.NumCPU()
	return &client{hc: &http.Client{Transport: tr, Timeout: fleetTimeout}, base: base}
}

func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) submit(spec doram.Params) (cluster.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return cluster.JobStatus{}, err
	}
	return c.status(http.MethodPost, c.base+"/v1/jobs", body, http.StatusAccepted)
}

func (c *client) status(method, url string, body []byte, want int) (cluster.JobStatus, error) {
	var st cluster.JobStatus
	code, data, err := c.do(method, url, body)
	if err != nil {
		return st, err
	}
	if code != want {
		return st, fmt.Errorf("%s %s: status %d: %s", method, url, code, bytes.TrimSpace(data))
	}
	return st, json.Unmarshal(data, &st)
}

func (c *client) result(id string) ([]byte, error) {
	code, data, err := c.do(http.MethodGet, c.base+"/v1/jobs/"+id+"/result", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result %s: status %d", id, code)
	}
	return data, err
}

// encodeResult renders a result the way a simsvc worker serves it, which
// the coordinator relays byte for byte.
func encodeResult(res *doram.SimResult) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(res) // a SimResult always encodes
	return buf.Bytes()
}

// outcome is one request's record.
type outcome struct {
	ok       bool
	lat      time.Duration // due → verified result
	done     time.Duration // completion, relative to the window's start
	late     time.Duration // submit start − due
	noise    float64       // host noise from the due time
	submit   time.Duration
	polls    []time.Duration
	fetch    time.Duration
	cacheHit bool // the coordinator answered from its cache
	status   cluster.JobStatus
	sum      [sha256.Size]byte // of the result bytes, for the re-fetch checks
	err      string

	rootSpan int        // the request's span id in a traced window
	calls    []callSpan // its HTTP calls, recorded under rootSpan at the end
}

type callSpan struct {
	name       string
	start, end time.Time
}

// call notes one HTTP call of the request for the span log.
func (o *outcome) call(name string, start time.Time, d time.Duration) {
	o.calls = append(o.calls, callSpan{name, start, start.Add(d)})
}

// loadGen drives one window's plan, due times counted from start, from a
// single goroutine: it submits each request when due and, between
// submissions, polls the jobs in flight every fleetPollEvery, fetching each
// result once done.
func loadGen(c *client, start time.Time, plan []fleetReq, hotBytes [][]byte, spans *spanLog) []outcome {
	out := make([]outcome, len(plan))
	type flight struct {
		i        int
		nextPoll time.Duration
	}
	var inflight []flight
	now := func() time.Duration { return time.Since(start) }

	finish := func(i int, body []byte, err error) {
		o := &out[i]
		o.done = now()
		o.lat = o.done - plan[i].due
		if err == nil && plan[i].hit && !bytes.Equal(body, hotBytes[plan[i].hot]) {
			err = fmt.Errorf("hot spec %d: bytes differ from the warmed result", plan[i].hot)
		}
		if err == nil && !plan[i].hit {
			var res doram.SimResult
			if err = json.Unmarshal(body, &res); err == nil && (res.Raw == nil || res.Raw.Cycles == 0) {
				err = fmt.Errorf("result without raw aggregates")
			}
		}
		o.sum = sha256.Sum256(body)
		o.ok = err == nil
		if err != nil {
			o.err = err.Error()
		}
		if spans != nil {
			o.rootSpan = spans.add("request", o.status.ID, 0, start.Add(plan[i].due), start.Add(o.done))
			for _, c := range o.calls {
				spans.add(c.name, o.status.ID, o.rootSpan, c.start, c.end)
			}
		}
	}
	fetch := func(i int) {
		o := &out[i]
		t0 := time.Now()
		body, err := c.result(o.status.ID)
		o.fetch = time.Since(t0)
		o.call("http.result", t0, o.fetch)
		finish(i, body, err)
	}

	next := 0
	for next < len(plan) || len(inflight) > 0 {
		t := now()
		if next < len(plan) && plan[next].due <= t {
			i := next
			next++
			o := &out[i]
			o.late = t - plan[i].due
			t0 := time.Now()
			st, err := c.submit(plan[i].spec)
			o.submit = time.Since(t0)
			o.status = st
			o.call("http.submit", t0, o.submit)
			switch {
			case err != nil:
				finish(i, nil, err)
			case st.State == simsvc.StateDone:
				o.cacheHit = st.Node == "cache"
				fetch(i)
			default:
				inflight = append(inflight, flight{i, now() + fleetPollEvery})
			}
			continue
		}
		// Poll the job whose turn comes first, if it has come.
		k := -1
		for j := range inflight {
			if k < 0 || inflight[j].nextPoll < inflight[k].nextPoll {
				k = j
			}
		}
		if k >= 0 && inflight[k].nextPoll <= t {
			i := inflight[k].i
			o := &out[i]
			t0 := time.Now()
			st, err := c.status(http.MethodGet, c.base+"/v1/jobs/"+o.status.ID, nil, http.StatusOK)
			d := time.Since(t0)
			o.polls = append(o.polls, d)
			o.call("http.poll", t0, d)
			if err == nil {
				o.status = st
			}
			switch {
			case err != nil || st.State == simsvc.StateFailed || st.State == simsvc.StateCancelled:
				if err == nil {
					err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
				}
				finish(i, nil, err)
			case st.State == simsvc.StateDone:
				o.cacheHit = st.Node == "cache"
				fetch(i)
			case now()-plan[i].due > fleetTimeout:
				finish(i, nil, fmt.Errorf("job %s still %s after %s", st.ID, st.State, fleetTimeout))
			default:
				inflight[k].nextPoll = now() + fleetPollEvery
				continue
			}
			inflight = append(inflight[:k], inflight[k+1:]...)
			continue
		}
		wake := time.Duration(1<<62 - 1)
		if next < len(plan) {
			wake = plan[next].due
		}
		if k >= 0 {
			wake = min(wake, inflight[k].nextPoll)
		}
		time.Sleep(wake - t)
	}
	return out
}

// fleetRun is the serve-fleet workload's state across set-up, windows and
// checks.
type fleetRun struct {
	b        *bench
	tap      *fleetTap
	f        *fleet
	c        *client
	hot      []doram.Params
	hotBytes [][]byte
	misses   []outcome // every miss served in the windows, for the checks
	traced   []outcome // the traced window's requests
}

// warm submits the hot set and waits for its results.
func (r *fleetRun) warm() error {
	ids := make([]string, len(r.hot))
	for i, spec := range r.hot {
		st, err := r.c.submit(spec)
		if err != nil {
			return fmt.Errorf("warm: %w", err)
		}
		ids[i] = st.ID
	}
	r.hotBytes = make([][]byte, len(r.hot))
	deadline := time.Now().Add(fleetTimeout)
	for i, id := range ids {
		for {
			st, err := r.c.status(http.MethodGet, r.c.base+"/v1/jobs/"+id, nil, http.StatusOK)
			if err != nil {
				return fmt.Errorf("warm: %w", err)
			}
			if st.State == simsvc.StateDone {
				break
			}
			if st.State.Terminal() || time.Now().After(deadline) {
				return fmt.Errorf("warm: hot job %s is %s %s", id, st.State, st.Error)
			}
			time.Sleep(fleetPollEvery)
		}
		body, err := r.c.result(id)
		if err != nil {
			return fmt.Errorf("warm: %w", err)
		}
		r.hotBytes[i] = body
	}
	return nil
}

func runFleet(b *bench) error {
	r := &fleetRun{b: b, hot: hotSet(b.seed)}
	if b.traced {
		r.tap = newFleetTap()
	}
	err := b.timeSetups(func() error {
		f, err := startFleet(r.tap)
		if err != nil {
			return err
		}
		r.f, r.c = f, newClient(f.url)
		return r.warm()
	}, func() { r.f.stop() })
	if err != nil {
		if r.f != nil {
			r.f.stop()
		}
		return err
	}
	defer r.f.stop()

	phaseNo, fresh := 0, 0
	err = b.measure(func(d time.Duration, spans *spanLog) (phase, error) {
		plan := fleetPlan(b.seed, phaseNo, d)
		phaseNo++
		for _, p := range plan {
			if !p.hit {
				fresh++
			}
		}
		if fresh+len(r.hot) > cluster.DefaultCacheEntries {
			b.refuse("%d fresh specs and %d hot ones overflow the coordinator's %d-entry cache; shorten the window",
				fresh, len(r.hot), cluster.DefaultCacheEntries)
		}
		if spans != nil {
			r.tap.spans = spans
			r.tap.armed.Store(true)
			defer r.tap.armed.Store(false)
		}
		host := startHostSampler()
		start := time.Now()
		out := loadGen(r.c, start, plan, r.hotBytes, spans)
		host.close()
		for i := range out {
			out[i].noise = host.noiseFrom(start.Add(plan[i].due))
		}
		return r.summarize(plan, out, d, spans), nil
	})
	if err != nil {
		return err
	}
	if b.traced {
		r.jobPath(b.spans)
	}
	r.checks()
	return nil
}

// summarize tallies one window: every request is an op, its percentiles
// and goodput, and in a traced window the per-layer split.
func (r *fleetRun) summarize(plan []fleetReq, out []outcome, d time.Duration, spans *spanLog) phase {
	b := r.b
	var lat, latNoise, hitLat, late []float64
	var lats []time.Duration
	var oks []bool
	hits, planned := 0, 0
	span := d
	for i, o := range out {
		b.check(o.ok, "request %d (%s): %s", i, o.status.ID, o.err)
		lats = append(lats, o.lat)
		oks = append(oks, o.ok)
		late = append(late, ms(o.late))
		span = max(span, o.done)
		if plan[i].hit {
			planned++
		}
		if !o.ok {
			continue
		}
		lat = append(lat, ms(o.lat))
		latNoise = append(latNoise, o.noise)
		if o.cacheHit {
			hits++
			hitLat = append(hitLat, ms(o.lat))
		} else {
			r.misses = append(r.misses, o)
		}
	}
	// The timed figures come from the requests due on a quiet host.
	quiet := pick(lat, quietest(latNoise))
	n := float64(len(out))
	p50 := median(quiet)
	hitShare := float64(hits) / n
	if spans == nil {
		plannedShare := float64(planned) / n
		if diff := hitShare - plannedShare; diff > 0.02 || diff < -0.02 || hitShare > 0.3 {
			b.refuse("observed hit share %.3f drifts from the planned %.3f", hitShare, plannedShare)
		}
		if hp99 := quantile(hitLat, 0.99); p50 <= hp99 {
			b.refuse("op p50 %.2f ms does not exceed the hit path's p99 %.2f ms", p50, hp99)
		}
		if len(lat) < 100 {
			b.refuse("window held %d replies; p90 needs 100", len(lat))
		}
		b.e2e["ops_per_s"] = goodput(lats, oks, fleetLimit, span)
		b.e2e["op_p50_ms"] = p50
		b.e2e["op_p90_ms"] = quantile(quiet, 0.9)
		b.report["requests"] = percentiles(lat)
		b.report["quiet_requests"] = percentiles(quiet)
		b.report["hit_path"] = percentiles(hitLat)
		b.report["hit_share_planned"] = plannedShare
		b.report["hit_share_observed"] = hitShare
		b.report["goodput_limit_ms"] = ms(fleetLimit)
		b.report["offered_rps"] = fleetRate
		b.report["gen_late_ms"] = percentiles(late)
		return phase{p50ms: p50}
	}

	var submit, poll, fetch []float64
	for _, o := range out {
		submit = append(submit, ms(o.submit))
		poll = append(poll, msAll(o.polls)...)
		if o.ok {
			fetch = append(fetch, ms(o.fetch))
		}
	}
	b.layer["http.submit_ms_p50"] = median(submit)
	b.layer["http.poll_ms_p50"] = median(poll)
	b.layer["http.result_ms_p50"] = median(fetch)
	b.layer["http.polls_per_op"] = float64(len(poll)) / n
	b.layer["gen.late_ms_p99"] = quantile(late, 0.99)
	b.layer["cluster.cache_hit_frac"] = hitShare
	b.report["traced_requests"] = percentiles(lat)

	r.tap.mu.Lock()
	var c2w []float64
	calls := map[string]int{}
	for kind, ds := range r.tap.c2w {
		c2w = append(c2w, msAll(ds)...)
		calls[kind] = len(ds)
	}
	b.layer["http.c2w_ms_p50"] = median(c2w)
	b.layer["http.c2w_calls_per_op"] = float64(len(c2w)) / n
	b.layer["cluster.fetch_ms_p50"] = median(msAll(r.tap.c2w["fetch"]))
	b.layer["simsvc.run_ms_p50"] = median(msAll(r.tap.runs))
	b.report["c2w_calls"] = calls
	b.report["sim_runs"] = percentiles(msAll(r.tap.runs))
	r.tap.mu.Unlock()

	r.traced = out
	return phase{p50ms: p50}
}

// jobPath splits the traced window's misses into job-path phases from the
// coordinator's and the workers' job histories. It runs after the profile
// stops, since it queries every worker.
func (r *fleetRun) jobPath(spans *spanLog) {
	b := r.b
	var dispatch, queue, pollWait []float64
	coalesced, misses := 0, 0
	for _, o := range r.traced {
		if !o.ok || o.cacheHit {
			continue
		}
		misses++
		code, data, err := r.c.do(http.MethodGet, o.status.Node+"/v1/jobs/"+o.status.RemoteID, nil)
		var w simsvc.JobStatus
		if err != nil || code != http.StatusOK || json.Unmarshal(data, &w) != nil {
			continue
		}
		if w.Coalesced {
			coalesced++
		}
		cq, cd := transitionAt(o.status.History, simsvc.StateQueued), transitionAt(o.status.History, simsvc.StateDone)
		wq, wr, wd := transitionAt(w.History, simsvc.StateQueued), transitionAt(w.History, simsvc.StateRunning), transitionAt(w.History, simsvc.StateDone)
		if cq.IsZero() || cd.IsZero() || wq.IsZero() || wr.IsZero() || wd.IsZero() {
			continue
		}
		dispatch = append(dispatch, ms(wq.Sub(cq)))
		queue = append(queue, ms(wr.Sub(wq)))
		pollWait = append(pollWait, ms(cd.Sub(wd)))
		spans.add("cluster.dispatch", o.status.ID, o.rootSpan, cq, wq)
		spans.add("simsvc.queue", o.status.ID, o.rootSpan, wq, wr)
		spans.add("simsvc.run", o.status.ID, o.rootSpan, wr, wd)
		spans.add("cluster.poll_wait", o.status.ID, o.rootSpan, wd, cd)
	}
	b.layer["cluster.dispatch_ms_p50"] = median(dispatch)
	b.layer["simsvc.queue_wait_ms_p50"] = median(queue)
	b.layer["cluster.poll_wait_ms_p50"] = median(pollWait)
	b.layer["simsvc.coalesced_frac"] = ratio(float64(coalesced), float64(misses))
	b.report["job_path_samples"] = len(pollWait)
}

func transitionAt(h []simsvc.Transition, s simsvc.State) time.Time {
	for _, t := range h {
		if t.State == s {
			return t.At
		}
	}
	return time.Time{}
}

// checks compares the fleet's bytes with in-process simulations: every
// hot spec, and a seeded sample of fresh specs, which must also come back
// from the coordinator's cache unchanged.
func (r *fleetRun) checks() {
	b := r.b
	for i, spec := range r.hot {
		want, err := simulateBytes(spec)
		if err == nil && !bytes.Equal(want, r.hotBytes[i]) {
			err = fmt.Errorf("fleet bytes differ from an in-process run")
		}
		b.check(err == nil, "hot spec %d: %v", i, err)
	}
	rng := rand.New(rand.NewPCG(b.seed, 0x5a3e))
	for _, k := range rng.Perm(len(r.misses))[:min(fleetResample, len(r.misses))] {
		o := r.misses[k]
		st, err := r.c.submit(o.status.Spec)
		if err == nil && (st.State != simsvc.StateDone || st.Node != "cache") {
			err = fmt.Errorf("re-submit was %s on %q, not a cache hit", st.State, st.Node)
		}
		var again, want []byte
		if err == nil {
			again, err = r.c.result(st.ID)
		}
		if err == nil && sha256.Sum256(again) != o.sum {
			err = fmt.Errorf("re-fetched bytes differ")
		}
		if err == nil {
			want, err = simulateBytes(o.status.Spec)
		}
		if err == nil && sha256.Sum256(want) != o.sum {
			err = fmt.Errorf("fleet bytes differ from an in-process run")
		}
		b.check(err == nil, "fresh spec %s: %v", o.status.ID, err)
	}
}

func simulateBytes(spec doram.Params) ([]byte, error) {
	res, err := doram.SimulateContext(context.Background(), spec.SimConfig())
	if err != nil {
		return nil, err
	}
	return encodeResult(res), nil
}
