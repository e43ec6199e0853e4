package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"kprof/internal/core"
	"kprof/internal/export"
	"kprof/internal/fleet"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

const (
	// serveClientPeriod is each client's fetch period. The status page at /
	// reloads itself once a second (its meta refresh), the only request
	// cadence the repository's own client sets; the workload gives every
	// other client the same period.
	serveClientPeriod = time.Second
	// serveLatencyLimit is the workload's fixed latency limit: a request
	// answered later than this after its due time counts as failed.
	serveLatencyLimit = 100 * time.Millisecond
	// setup_s on serve is the median of serveSetupSamples server starts,
	// serveSetupPause apart. Back-to-back starts run on a hot process whose
	// speed drifts by a factor of two from one tenth of a second to the
	// next; paused ones each start from idle, like a real server start,
	// and their median holds steady.
	serveSetupSamples = 101
	serveSetupPause   = 20 * time.Millisecond
	// serveWarmup is the length of the untimed phase that runs before each
	// part of the timed phase.
	serveWarmup = time.Second
	// serveParts is how many parts the timed phase is split into, each
	// served by a fresh pair of processes. The server's CPU time for the
	// same work differs by a quarter from one pair to the next, however
	// long the pair runs; a run made of several pairs averages that out.
	serveParts = 4
	// The recorded feed: serveVirtual of a netrecv capture's progress and
	// of a fleet's closed windows, serveFleetWindow wide.
	serveVirtual     = 300 * sim.Millisecond
	serveFleetWindow = 10 * sim.Millisecond
)

// Routes of the GET mix. A conditional request sends the ETag its client
// last received.
const (
	routePage = iota
	routeStatus
	routeStatusCond
	routeTimeseries
	routePprof
	routeTrace
	nRoutes
)

var routePaths = [nRoutes]string{"/", "/status.json", "/status.json", "/timeseries.json", "/pprof", "/trace.json"}

// serveClients is how many clients fetch each route, each once per
// serveClientPeriod: browsers on the status page, scripts polling
// /status.json with and without If-None-Match and /timeseries.json, and
// pprof and trace pulls. The counts are the workload's choice, not a
// measurement: 400 clients make 400 requests a second, enough that the
// serving work, not the idle wake-ups between events, sets the server's
// CPU time.
var serveClients = [nRoutes]int{routePage: 120, routeStatus: 40, routeStatusCond: 120, routeTimeseries: 80, routePprof: 20, routeTrace: 20}

// serveRecording is the serve workload's input, recorded in a child
// process: a short netrecv capture's progress events and drained
// segments, the closed windows of a short fleet run, and the bodies the
// exporters rendered there from the capture's analysis.
type serveRecording struct {
	Progress []core.Progress
	Captures []hw.Capture
	Tags     string
	Windows  []fleet.WindowSummary
	Pprof    []byte
	Trace    []byte
}

func recordServeChild(seed uint64) (*serveRecording, error) {
	rec := &serveRecording{}
	sc, _ := workload.FindScenario("netrecv")
	m := core.NewMachine(kernel.Config{Seed: seed})
	p := workload.Params{Duration: serveVirtual}
	if sc.Setup != nil {
		if err := sc.Setup(m, p); err != nil {
			return nil, err
		}
	}
	s, err := core.NewSession(m, core.ProfileConfig{Mode: core.CaptureContinuous})
	if err != nil {
		return nil, err
	}
	s.SetProgress(func(p core.Progress) { rec.Progress = append(rec.Progress, p) })
	s.Arm()
	if _, err := sc.Run(m, p); err != nil {
		return nil, err
	}
	s.Disarm()
	for _, seg := range s.Segments() {
		rec.Captures = append(rec.Captures, seg.Capture)
	}
	var tags strings.Builder
	if err := s.Tags.Format(&tags); err != nil {
		return nil, err
	}
	rec.Tags = tags.String()
	a := s.Analyze()
	rec.Pprof = export.MarshalPprof(a, export.PprofOptions{})
	var tb bytes.Buffer
	if err := export.WriteChromeTrace(&tb, a); err != nil {
		return nil, err
	}
	rec.Trace = tb.Bytes()

	machines, err := fleet.MachinesFromMix(fleetMachines, fleetMix, seed, workload.Params{Duration: serveVirtual})
	if err != nil {
		return nil, err
	}
	if _, err := fleet.Run(fleet.Config{Machines: machines, Window: serveFleetWindow, Workers: fleetProjectors,
		OnWindow: func(ws fleet.WindowSummary) { rec.Windows = append(rec.Windows, ws) }}); err != nil {
		return nil, err
	}
	return rec, nil
}

// serveFeed is the recorded feed as the client side needs it: the bodies
// the profile routes must serve, and the client order.
type serveFeed struct {
	path         string // the recording, which the serve host reads
	pprof, trace []byte
	clients      []int // route per client, in the order they fetch within a period
}

// recordServe records the feed in a child process and returns the path
// of the recording.
func (e *env) recordServe() (string, error) {
	rec := &serveRecording{}
	if err := e.child(childRecordServe, e.seed, rec); err != nil {
		return "", err
	}
	if len(rec.Progress) == 0 || len(rec.Captures) == 0 || len(rec.Windows) == 0 {
		return "", fmt.Errorf("recorded feed is empty: %d progress events, %d segments, %d windows",
			len(rec.Progress), len(rec.Captures), len(rec.Windows))
	}
	return e.childOut(childRecordServe), nil
}

// newServeFeed reads the recording at path and orders the clients by the
// seed.
func newServeFeed(path string, seed uint64) (*serveFeed, error) {
	rec := &serveRecording{}
	if err := readGob(path, rec); err != nil {
		return nil, err
	}
	f := &serveFeed{path: path, pprof: rec.Pprof, trace: rec.Trace}
	for route, n := range serveClients {
		for i := 0; i < n; i++ {
			f.clients = append(f.clients, route)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(f.clients), func(i, j int) { f.clients[i], f.clients[j] = f.clients[j], f.clients[i] })
	return f, nil
}

// startServer starts a StatusServer on a loopback port in the state the
// CLI's -http mode puts it in while a run executes.
func startServer() (*export.StatusServer, string, func() error, error) {
	srv := export.NewStatusServer()
	srv.SetScenario("netrecv")
	srv.SetState("running")
	url, stop, err := srv.Start("127.0.0.1:0")
	return srv, url, stop, err
}

// serveSetup measures Start to the first 200 from /status.json on a fresh
// server and connection, serveSetupSamples times.
func serveSetup() ([]float64, error) {
	var out []float64
	for i := 0; i < serveSetupSamples; i++ {
		time.Sleep(serveSetupPause)
		d, err := startAndAnswer()
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// startAndAnswer starts a server, gets the first 200 from /status.json on
// a new connection, stops the server, and returns the time to the 200.
func startAndAnswer() (time.Duration, error) {
	start := time.Now()
	_, url, stop, err := startServer()
	if err != nil {
		return 0, err
	}
	defer stop()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(url + "/status.json")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		if time.Since(start) > 10*time.Second {
			return 0, fmt.Errorf("status server never answered 200: %v", err)
		}
	}
}

// servePhase is one open-loop serving phase.
type servePhase struct {
	root        int
	Requests    int
	Latency     []float64 // ms from due time, every request
	ByRoute     [nRoutes][]float64
	NotModified []float64 // ms, conditional requests answered 304
	CondTotal   int
	Cond304     int
	GenLag      []float64     // ms the generator sent late
	SSELag      []float64     // ms from publish to receipt
	Run         time.Duration // first due to last response
	Host        *hostPhase
}

// join adds phase q's samples and counts to p's; a nil p is empty.
func (p *servePhase) join(q *servePhase) *servePhase {
	if p == nil {
		return q
	}
	p.Requests += q.Requests
	p.Latency = append(p.Latency, q.Latency...)
	for r := range p.ByRoute {
		p.ByRoute[r] = append(p.ByRoute[r], q.ByRoute[r]...)
	}
	p.NotModified = append(p.NotModified, q.NotModified...)
	p.CondTotal += q.CondTotal
	p.Cond304 += q.Cond304
	p.GenLag = append(p.GenLag, q.GenLag...)
	p.SSELag = append(p.SSELag, q.SSELag...)
	p.Run += q.Run
	p.Host.PublishUS = append(p.Host.PublishUS, q.Host.PublishUS...)
	p.Host.CPU += q.Host.CPU
	p.Host.Allocs += q.Host.Allocs
	p.Host.RSSMB = max(p.Host.RSSMB, q.Host.RSSMB)
	p.Host.SSEDropped += q.Host.SSEDropped
	return p
}

// sseReader holds /events open and notes when each event id arrives.
type sseReader struct {
	mu         sync.Mutex
	got        map[uint64]time.Time
	last       uint64
	subscribed chan struct{}
	wg         sync.WaitGroup
}

func (r *sseReader) read(body io.ReadCloser) {
	defer r.wg.Done()
	defer body.Close()
	rd := bufio.NewReader(body)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return
		}
		if line == "event: snapshot\n" {
			// The server registers a subscriber before it sends the
			// snapshot, so every later publish is an event here.
			close(r.subscribed)
		}
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			if id, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64); err == nil {
				r.mu.Lock()
				r.got[id], r.last = time.Now(), max(r.last, id)
				r.mu.Unlock()
			}
		}
	}
}

func (r *sseReader) lastID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// runServePhase serves for d from a fresh server in the serve host: its
// publisher replays the feed, one SSE subscriber holds /events on its own
// connection, and the generator sends every client's request once per
// serveClientPeriod over one keep-alive connection, each request timed
// from when it was due.
func runServePhase(o *outcome, h *serveHost, f *serveFeed, tr *tracer, d time.Duration) (*servePhase, error) {
	opened, err := h.call("open")
	if err != nil {
		return nil, err
	}
	url := opened.URL
	ph := &servePhase{}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sseClient := &http.Client{Transport: &http.Transport{}}
	defer sseClient.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := sseClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("subscribe /events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe /events: %s", resp.Status)
	}
	sse := &sseReader{got: make(map[uint64]time.Time), subscribed: make(chan struct{})}
	sse.wg.Add(1)
	go sse.read(resp.Body)
	defer sse.wg.Wait()
	defer cancel()
	select {
	case <-sse.subscribed:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("subscribe /events: no snapshot event")
	}

	mode := "start 0"
	if tr != nil {
		mode = "start 1"
	}
	if _, err := h.call(mode); err != nil {
		return nil, err
	}
	ph.root = tr.begin(0, "serve.run")
	start := time.Now()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	period := serveClientPeriod / time.Duration(len(f.clients))
	n := int(d / period)
	etags := make([]string, len(f.clients))
	var last time.Time
	for i := 0; i < n; i++ {
		c := i % len(f.clients)
		route := f.clients[c]
		due := start.Add(time.Duration(i) * period)
		time.Sleep(time.Until(due))
		sent := time.Now()
		ph.GenLag = append(ph.GenLag, ms(sent.Sub(due)))
		id := tr.begin(ph.root, "serve.request")
		code, body, tag, err := get(client, url+routePaths[route], route == routeStatusCond, etags[c])
		tr.end(id)
		last = time.Now()
		lat := ms(last.Sub(due))
		ph.Requests++
		ph.Latency = append(ph.Latency, lat)
		failed := err != nil || (code != http.StatusOK && code != http.StatusNotModified) ||
			(code == http.StatusNotModified && route != routeStatusCond)
		o.fails.count("http", 1, boolInt(failed))
		o.fails.count("latency", 1, boolInt(failed || lat > ms(serveLatencyLimit)))
		if failed {
			continue
		}
		if route == routeStatusCond {
			ph.CondTotal++
			if code == http.StatusNotModified {
				ph.Cond304++
				ph.NotModified = append(ph.NotModified, lat)
				continue
			}
			etags[c] = tag
		}
		ph.ByRoute[route] = append(ph.ByRoute[route], lat)
		checkBody(o, route, body, f)
	}
	ph.Run = last.Sub(start)
	tr.end(ph.root)
	stopped, err := h.call("stop")
	if err != nil {
		return nil, err
	}
	ph.Host = stopped.Phase

	// Every event published must reach the subscriber before the server
	// closes; a second is far longer than delivery takes.
	published := uint64(len(ph.Host.PublishedNS))
	for wait := time.Now(); sse.lastID() < published && time.Since(wait) < time.Second; {
		time.Sleep(time.Millisecond)
	}
	if _, err := h.call("close"); err != nil {
		return nil, err
	}
	cancel()
	sse.wg.Wait()
	for i, ns := range ph.Host.PublishedNS {
		if got, ok := sse.got[uint64(i+1)]; ok {
			ph.SSELag = append(ph.SSELag, ms(got.Sub(time.Unix(0, ns))))
		}
	}
	evicted := ph.Host.Subscribers == 0
	missing := len(ph.Host.PublishedNS) - len(ph.SSELag)
	o.fails.count("sse", 1, boolInt(evicted || ph.Host.SSEDropped > 0 || missing > 0))
	return ph, nil
}

// get sends one GET, conditional on etag when cond is set, and returns the
// status, the body and the response's ETag.
func get(client *http.Client, url string, cond bool, etag string) (int, []byte, string, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, "", err
	}
	if cond && etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("ETag"), err
}

// checkBody fails the run when a route serves the wrong bytes: the profile
// routes must equal the exporters' output for the published analysis, the
// JSON routes must parse, and the page must be the status page.
func checkBody(o *outcome, route int, body []byte, f *serveFeed) {
	switch route {
	case routePprof:
		if !bytes.Equal(body, f.pprof) {
			o.problem("serve: /pprof body differs from MarshalPprof of the published analysis")
		}
	case routeTrace:
		if !bytes.Equal(body, f.trace) {
			o.problem("serve: /trace.json body differs from WriteChromeTrace of the published analysis")
		}
	case routePage:
		if !bytes.HasPrefix(body, []byte("<!DOCTYPE html>")) || !bytes.Contains(body, []byte("<title>kprof status</title>")) {
			o.problem("serve: / did not serve the status page")
		}
	default:
		if !json.Valid(body) {
			o.problem("serve: %s served invalid JSON", routePaths[route])
		}
	}
}

// servePartSpec is what a part child reads: the recording, the seed, the
// length of its timed phase and whether to trace it.
type servePartSpec struct {
	Recording string
	Seed      uint64
	D         time.Duration
	Traced    bool
}

// servePart is what a part child hands back.
type servePart struct {
	Phase    *servePhase
	Fails    map[string][2]int
	Problems []string
	Origin   time.Time
	Spans    []span
}

// servePart runs one part of the timed phase in a child process, which
// starts its own serve host.
func (e *env) servePart(recording string, d time.Duration, traced bool) (*servePart, error) {
	in := filepath.Join(e.work, "serve-part.gob")
	if err := writeGob(in, servePartSpec{Recording: recording, Seed: e.seed, D: d, Traced: traced}); err != nil {
		return nil, err
	}
	part := &servePart{}
	return part, e.childIn(childServePart, e.seed, in, part)
}

// servePartChild is one part: an untimed warm-up phase, so the timed one
// does not pay for the processes' first requests, then the timed phase.
func servePartChild(in string) (*servePart, error) {
	var spec servePartSpec
	if err := readGob(in, &spec); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	e := &env{seed: spec.Seed, self: self, workers: runtime.NumCPU()}
	f, err := newServeFeed(spec.Recording, spec.Seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	h, err := e.startServeHost(o, f.path)
	if err != nil {
		return nil, err
	}
	defer h.close()
	if _, err := runServePhase(newOutcome(), h, f, nil, serveWarmup); err != nil {
		return nil, err
	}
	var tr *tracer
	if spec.Traced {
		tr = newTracer()
	}
	ph, err := runServePhase(o, h, f, tr, spec.D)
	if err != nil {
		return nil, err
	}
	if err := h.close(); err != nil {
		return nil, fmt.Errorf("serve host: %w", err)
	}
	part := &servePart{Phase: ph, Fails: o.fails.snapshot(), Problems: o.problems}
	if tr != nil {
		tr.merge(ph.Host.Spans, ph.Host.Origin)
		ph.Host.Spans = nil
		part.Origin, part.Spans = tr.origin, tr.snapshot()
	}
	return part, nil
}

func runServe(e *env) (*outcome, error) {
	o := newOutcome()
	recording, err := e.recordServe()
	if err != nil {
		return nil, err
	}
	setup, err := serveSetup()
	if err != nil {
		return nil, err
	}
	// A traced run alternates untraced, traced, traced, untraced parts, so
	// drift in the host's speed falls on both alike.
	order := make([]bool, serveParts)
	if e.trace {
		order = []bool{false, true, true, false}
	}
	tr := newTracer()
	var ph, traced *servePhase
	var partCPU []string
	for _, traceIt := range order {
		part, err := e.servePart(recording, e.budget/time.Duration(len(order)), traceIt)
		if err != nil {
			return nil, err
		}
		for k, f := range part.Fails {
			o.fails.count(k, f[0], f[1])
		}
		o.problems = append(o.problems, part.Problems...)
		partCPU = append(partCPU, fmt.Sprintf("%.3f", part.Phase.Host.CPU.Seconds()))
		if traceIt {
			tr.merge(part.Spans, part.Origin)
			traced = traced.join(part.Phase)
		} else {
			ph = ph.join(part.Phase)
		}
	}
	if !e.trace {
		cpu := ph.Host.CPU
		m := o.metrics
		m["setup_s"] = median(setup)
		m["run_s"] = ph.Run.Seconds()
		m["ns_per_record"] = float64(cpu.Nanoseconds()) / float64(ph.Requests)
		m["cpu_s"] = cpu.Seconds()
		m["peak_rss_mb"] = ph.Host.RSSMB
		m["req_p50_ms"] = median(ph.Latency)
		o.note("%d requests in %d parts, each client every %v (latency limit %v), %d publishes, %d SSE events received; server CPU s by part: %s",
			ph.Requests, len(order), serveClientPeriod, serveLatencyLimit, len(ph.Host.PublishUS), len(ph.SSELag), strings.Join(partCPU, " "))
		return o, nil
	}
	o.spans = tr.snapshot()
	if traced.Requests != ph.Requests {
		o.problem("serve: traced phase sent %d requests, untraced %d", traced.Requests, ph.Requests)
	}
	zeroLayerMetrics(o)
	m := o.metrics
	m["serve.page_p50_ms"] = median(traced.ByRoute[routePage])
	m["serve.status_p50_ms"] = median(traced.ByRoute[routeStatus])
	m["serve.status_304_p50_ms"] = median(traced.NotModified)
	m["serve.timeseries_p50_ms"] = median(traced.ByRoute[routeTimeseries])
	m["serve.pprof_p50_ms"] = median(traced.ByRoute[routePprof])
	m["serve.trace_p50_ms"] = median(traced.ByRoute[routeTrace])
	m["serve.not_modified_ratio"] = ratio(float64(traced.Cond304), float64(traced.CondTotal))
	m["serve.publish_us_p50"] = median(traced.Host.PublishUS)
	m["serve.sse_lag_p99_ms"] = percentile(traced.SSELag, 99)
	m["serve.sse_dropped"] = float64(traced.Host.SSEDropped)
	m["serve.gen_lag_p99_ms"] = percentile(traced.GenLag, 99)
	m["serve.allocs_per_request"] = float64(traced.Host.Allocs) / float64(traced.Requests)
	m["serve.requests"] = float64(traced.Requests)
	m["req_p99_ms"] = percentile(ph.Latency, 99)
	m["trace.overhead_ratio"] = median(traced.Latency)/median(ph.Latency) - 1
	o.note("traced request p50 %.4f ms against untraced %.4f ms over %d requests each",
		median(traced.Latency), median(ph.Latency), traced.Requests)
	return o, nil
}
