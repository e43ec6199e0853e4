package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"html"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/fleet"
	"kprof/internal/sim"
	"kprof/internal/sweep"
)

// The live serving tier: an HTTP server fed by the progress hooks on
// core.Session, sweep.Config and fleet.Config, built to fan one live
// capture out to many concurrent clients without ever touching the
// measured path. Four mechanisms carry it (see DESIGN.md, "Live serving
// tier"):
//
//   - /status.json and / render whatever the hooks last reported, through
//     a generation-counter ETag cache (cache.go): pollers revalidate with
//     If-None-Match and in steady state get 304s that cost no render and
//     no lock;
//   - /events pushes every progress and aggregate delta over SSE through
//     a bounded fan-out hub (hub.go) — slow subscribers are dropped, with
//     accounting, never waited on;
//   - /timeseries.json serves a fixed-capacity ring of recent fleet
//     window summaries and ingest load samples (ring.go), the trend view
//     a client joining mid-run has otherwise missed;
//   - /pprof and /trace.json render the published live analysis through
//     the existing exporter writers (pprof.go, trace.go), byte-identical
//     to the file exports.

// SessionStatus is the live view of one profiling session's capture
// state, mirroring core.Progress. Loss-accounting field names follow the
// repository-wide vocabulary (dropped_strobes; see DESIGN.md).
type SessionStatus struct {
	NowUS          int64   `json:"now_us"`
	Armed          bool    `json:"armed"`
	Mode           string  `json:"mode"`
	Stored         int     `json:"stored"`
	Depth          int     `json:"depth"`
	FillPct        float64 `json:"fill_pct"`
	Overflowed     bool    `json:"overflowed"`
	Segments       int     `json:"segments"`
	DrainedRecords int     `json:"drained_records"`
	Dropped        uint64  `json:"dropped_strobes"`
	// FaultsInjected counts corruptions the session's fault injector has
	// applied; absent when the run is on pristine hardware.
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	// DrainErrs counts drains whose readout failed verification (each one
	// stranded a bank, included in Dropped); absent when every drain read
	// back clean.
	DrainErrs int `json:"drain_errors,omitempty"`
	// Gen is the session's snapshot sequence number (core.Progress.Gen):
	// it increments by one per progress snapshot, so two equal Gens are
	// the same snapshot.
	Gen uint64 `json:"gen"`
}

// SweepStatus is the live view of a multi-seed sweep, mirroring
// sweep.Progress.
type SweepStatus struct {
	Scenario string `json:"scenario"`
	Seeds    int    `json:"seeds"`
	Started  int    `json:"started"`
	Done     int    `json:"done"`
	LastSeed uint64 `json:"last_seed"`
	Segments int    `json:"segments"`
	Dropped  uint64 `json:"dropped_strobes"`
}

// FleetStatus is the live view of a fleet ingest pipeline, mirroring
// fleet.Progress.
type FleetStatus struct {
	Machines     int `json:"machines"`
	MachinesDone int `json:"machines_done"`
	// SegmentsStaged and SegmentsCommitted are lifetime totals; Backlog
	// is the staged-but-uncommitted count bounded by the staging store.
	SegmentsStaged    int `json:"segments_staged"`
	SegmentsCommitted int `json:"segments_committed"`
	Backlog           int `json:"backlog"`
	RecordsCommitted  int `json:"records_committed"`
	// Dropped uses the repository-wide loss vocabulary.
	Dropped uint64 `json:"dropped_strobes"`
	// WatermarkUS is the fleet watermark: every machine's stream is
	// committed at least this far into virtual time.
	WatermarkUS   int64 `json:"watermark_us"`
	WindowsClosed int   `json:"windows_closed"`
}

// StatusSnapshot is everything /status.json serves.
type StatusSnapshot struct {
	// Scenario and State describe the run as a whole; State is free-form
	// ("running", "done", ...) and set by the driver via SetState.
	Scenario string `json:"scenario,omitempty"`
	State    string `json:"state"`
	// Session, Sweep and Fleet are present once the corresponding hook
	// has fired at least once.
	Session *SessionStatus `json:"session,omitempty"`
	Sweep   *SweepStatus   `json:"sweep,omitempty"`
	Fleet   *FleetStatus   `json:"fleet,omitempty"`
	// Serving is the SSE hub's fan-out accounting, present once /events
	// has seen any activity.
	Serving *HubStats `json:"serving,omitempty"`
}

// StatusServer serves the live capture status. Zero value is not usable;
// call NewStatusServer. Wire it up with
//
//	srv := export.NewStatusServer()
//	session.SetProgress(srv.OnSessionProgress)   // and/or
//	sweepCfg.OnProgress = srv.OnSweepProgress
//	url, stop, err := srv.Start(":6060")
//
// All methods are safe for concurrent use: the hooks run on simulation or
// worker goroutines while HTTP handlers read. The hooks build a fresh
// immutable status struct and swap the pointer under the lock — handlers
// and SSE marshaling only ever read published structs, never ones still
// being written.
type StatusServer struct {
	mu       sync.RWMutex
	snap     StatusSnapshot
	analysis *analyze.Analysis

	mux *http.ServeMux
	hub *hub
	ts  atomic.Pointer[timeseries]

	// One ETag generation per cacheable endpoint; every mutator bumps
	// the generations of the resources it affects (see cache.go).
	statusRes cachedResource
	tsRes     cachedResource
	pprofRes  cachedResource
	traceRes  cachedResource
}

// NewStatusServer returns a server with an empty snapshot and State
// "idle".
func NewStatusServer() *StatusServer {
	s := &StatusServer{snap: StatusSnapshot{State: "idle"}}
	s.statusRes.prefix = "st-"
	s.tsRes.prefix = "ts-"
	s.pprofRes.prefix = "pp-"
	s.traceRes.prefix = "tr-"
	// Subscriber-set changes alter the "serving" section, so they
	// invalidate the status resource.
	s.hub = newHub(s.statusRes.invalidate)
	s.ts.Store(newTimeseries(DefaultWindowRing, DefaultLoadRing))
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/status.json", s.serveJSON)
	s.mux.HandleFunc("/timeseries.json", s.serveTimeseries)
	s.mux.HandleFunc("/events", s.serveEvents)
	s.mux.HandleFunc("/pprof", s.servePprof)
	s.mux.HandleFunc("/trace.json", s.serveTrace)
	s.mux.HandleFunc("/", s.serveHTML)
	return s
}

// SetScenario records the scenario name shown in the status.
func (s *StatusServer) SetScenario(name string) {
	s.mu.Lock()
	s.snap.Scenario = name
	s.mu.Unlock()
	s.publishState()
	s.statusRes.invalidate()
}

// SetState records the run state ("running", "done", ...).
func (s *StatusServer) SetState(state string) {
	s.mu.Lock()
	s.snap.State = state
	s.mu.Unlock()
	s.publishState()
	s.statusRes.invalidate()
}

// publishState pushes a "state" SSE event with the run identity.
func (s *StatusServer) publishState() {
	if !s.hub.active() {
		return
	}
	s.mu.RLock()
	p := struct {
		Scenario string `json:"scenario,omitempty"`
		State    string `json:"state"`
	}{s.snap.Scenario, s.snap.State}
	s.mu.RUnlock()
	data, _ := json.Marshal(p)
	s.hub.publish("state", data)
}

// OnSessionProgress is a core.Session progress hook: pass it to
// Session.SetProgress.
func (s *StatusServer) OnSessionProgress(p core.Progress) {
	st := &SessionStatus{
		NowUS:          p.Now.Micros(),
		Armed:          p.Armed,
		Mode:           p.Mode.String(),
		Stored:         p.Stored,
		Depth:          p.Depth,
		Overflowed:     p.Overflowed,
		Segments:       p.Segments,
		DrainedRecords: p.SegmentRecords,
		Dropped:        p.Dropped,
		FaultsInjected: p.FaultsInjected,
		DrainErrs:      p.DrainErrs,
	}
	if p.Depth > 0 {
		st.FillPct = 100 * float64(p.Stored) / float64(p.Depth)
	}
	st.Gen = p.Gen
	s.mu.Lock()
	s.snap.Session = st
	s.mu.Unlock()
	if s.hub.active() {
		data, _ := json.Marshal(st)
		s.hub.publish("session", data)
	}
	s.statusRes.invalidate()
}

// OnSweepProgress is a sweep progress hook: assign it to
// sweep.Config.OnProgress.
func (s *StatusServer) OnSweepProgress(p sweep.Progress) {
	st := &SweepStatus{
		Scenario: p.Scenario,
		Seeds:    p.Seeds,
		Started:  p.Started,
		Done:     p.Done,
		LastSeed: p.Seed,
		Segments: p.Segments,
		Dropped:  p.Dropped,
	}
	s.mu.Lock()
	s.snap.Sweep = st
	s.mu.Unlock()
	if s.hub.active() {
		data, _ := json.Marshal(st)
		s.hub.publish("sweep", data)
	}
	s.statusRes.invalidate()
}

// OnFleetProgress is a fleet ingest-pipeline hook: assign it to
// fleet.Config.OnProgress. It runs under the staging store's lock, so it
// only copies the snapshot and returns.
func (s *StatusServer) OnFleetProgress(p fleet.Progress) {
	st := &FleetStatus{
		Machines:          p.Machines,
		MachinesDone:      p.MachinesDone,
		SegmentsStaged:    p.SegmentsStaged,
		SegmentsCommitted: p.SegmentsCommitted,
		Backlog:           p.Backlog,
		RecordsCommitted:  p.RecordsCommitted,
		Dropped:           p.Dropped,
		WatermarkUS:       p.WatermarkUS,
		WindowsClosed:     p.WindowsClosed,
	}
	s.mu.Lock()
	s.snap.Fleet = st
	s.mu.Unlock()
	// The load ring coalesces: only staged/committed transitions become
	// points, and the point carries only interleaving-independent fields
	// (see ring.go's determinism contract). SSE "fleet" events follow the
	// same gate so a watched run streams one delta per real transition.
	if lp, ok := s.ts.Load().pushLoad(LoadPoint{
		Staged:    p.SegmentsStaged,
		Committed: p.SegmentsCommitted,
		Backlog:   p.Backlog,
		Records:   p.RecordsCommitted,
		Dropped:   p.Dropped,
	}); ok {
		s.tsRes.invalidate()
		if s.hub.active() {
			data, _ := json.Marshal(lp)
			s.hub.publish("fleet", data)
		}
	}
	s.statusRes.invalidate()
}

// Snapshot returns a copy of the current status, including the SSE
// hub's accounting once it has seen any activity.
func (s *StatusServer) Snapshot() StatusSnapshot {
	s.mu.RLock()
	snap := s.snap
	s.mu.RUnlock()
	if hs := s.hub.stats(); hs != (HubStats{}) {
		snap.Serving = &hs
	}
	return snap
}

// Handler returns the HTTP handler serving / (HTML), /status.json,
// /timeseries.json, /events (SSE), /pprof and /trace.json.
func (s *StatusServer) Handler() http.Handler { return s.mux }

// Limits of the server Start runs. A client gets readHeaderTimeout to send
// its request headers, at most maxHeaderBytes of them, and an idle
// keep-alive connection is closed after idleTimeout. There is no write
// timeout: an /events stream lives as long as its subscriber keeps up (the
// hub evicts one that does not).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 32 << 10
)

// Start listens on addr (e.g. ":6060") and serves the status in a
// background goroutine. It returns the reachable URL and a stop function
// that closes the listener and every connection, and reports why serving
// ended if that was anything but the stop itself.
func (s *StatusServer) Start(addr string) (string, func() error, error) {
	return s.start(addr, readHeaderTimeout)
}

// start is Start with the header deadline as a parameter, so a test can
// watch a stalled client get cut off without waiting out the default.
func (s *StatusServer) start(addr string, headerTimeout time.Duration) (string, func() error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			stopErr = srv.Close()
			if err := <-served; !errors.Is(err, http.ErrServerClosed) {
				stopErr = err
			}
		})
		return stopErr
	}
	return "http://" + l.Addr().String(), stop, nil
}

func (s *StatusServer) renderStatus() []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
	return b.Bytes()
}

func (s *StatusServer) serveJSON(w http.ResponseWriter, r *http.Request) {
	s.statusRes.serve(w, r, "application/json", s.renderStatus)
}

func (s *StatusServer) serveHTML(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	snap := s.Snapshot()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html><html><head><meta charset=\"utf-8\">")
	fmt.Fprint(w, "<meta http-equiv=\"refresh\" content=\"1\"><title>kprof status</title>")
	fmt.Fprint(w, "<style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}")
	fmt.Fprint(w, "td,th{border:1px solid #999;padding:.3em .8em;text-align:right}th{text-align:left}</style>")
	fmt.Fprint(w, "</head><body><h1>kprof</h1>")
	fmt.Fprintf(w, "<p>scenario <b>%s</b> — state <b>%s</b> — <a href=\"/status.json\">status.json</a>"+
		" · <a href=\"/timeseries.json\">timeseries.json</a> · <a href=\"/events\">events</a>"+
		" · <a href=\"/pprof\">pprof</a> · <a href=\"/trace.json\">trace.json</a></p>",
		html.EscapeString(snap.Scenario), html.EscapeString(snap.State))
	if hs := snap.Serving; hs != nil {
		fmt.Fprintf(w, "<p>serving: %d subscriber(s), %d event(s) pushed, %d slow client(s) dropped</p>",
			hs.Subscribers, hs.Published, hs.SlowDropped)
	}
	if st := snap.Session; st != nil {
		fmt.Fprint(w, "<h2>capture</h2><table>")
		fmt.Fprintf(w, "<tr><th>virtual time</th><td>%s</td></tr>", sim.Time(st.NowUS)*sim.Microsecond)
		fmt.Fprintf(w, "<tr><th>mode</th><td>%s</td></tr>", html.EscapeString(st.Mode))
		fmt.Fprintf(w, "<tr><th>armed</th><td>%v</td></tr>", st.Armed)
		fmt.Fprintf(w, "<tr><th>card fill</th><td>%d / %d (%.1f%%)</td></tr>", st.Stored, st.Depth, st.FillPct)
		fmt.Fprintf(w, "<tr><th>overflow LED</th><td>%v</td></tr>", st.Overflowed)
		fmt.Fprintf(w, "<tr><th>drained segments</th><td>%d</td></tr>", st.Segments)
		fmt.Fprintf(w, "<tr><th>drained records</th><td>%d</td></tr>", st.DrainedRecords)
		fmt.Fprintf(w, "<tr><th>dropped strobes</th><td>%d</td></tr>", st.Dropped)
		if st.FaultsInjected > 0 {
			fmt.Fprintf(w, "<tr><th>faults injected</th><td>%d</td></tr>", st.FaultsInjected)
		}
		if st.DrainErrs > 0 {
			fmt.Fprintf(w, "<tr><th>failed drains</th><td>%d</td></tr>", st.DrainErrs)
		}
		fmt.Fprint(w, "</table>")
	}
	if st := snap.Fleet; st != nil {
		fmt.Fprint(w, "<h2>fleet</h2><table>")
		fmt.Fprintf(w, "<tr><th>machines done</th><td>%d / %d</td></tr>", st.MachinesDone, st.Machines)
		fmt.Fprintf(w, "<tr><th>segments committed</th><td>%d / %d staged (%d backlog)</td></tr>",
			st.SegmentsCommitted, st.SegmentsStaged, st.Backlog)
		fmt.Fprintf(w, "<tr><th>records committed</th><td>%d</td></tr>", st.RecordsCommitted)
		fmt.Fprintf(w, "<tr><th>dropped strobes</th><td>%d</td></tr>", st.Dropped)
		fmt.Fprintf(w, "<tr><th>watermark</th><td>%s</td></tr>", sim.Time(st.WatermarkUS)*sim.Microsecond)
		fmt.Fprintf(w, "<tr><th>windows closed</th><td>%d</td></tr>", st.WindowsClosed)
		fmt.Fprint(w, "</table>")
	}
	if doc := s.ts.Load().document(); len(doc.Windows) > 0 || len(doc.Load) > 0 {
		fmt.Fprint(w, "<h2>trend</h2><table>")
		if n := len(doc.Windows); n > 0 {
			recs := make([]int, n)
			for i, p := range doc.Windows {
				recs[i] = p.Records
			}
			last := doc.Windows[n-1]
			fmt.Fprintf(w, "<tr><th>window records</th><td>%s (%d windows, last: %d records", sparkline(recs), doc.WindowsTotal, last.Records)
			if last.TopFn != "" {
				fmt.Fprintf(w, ", top %s %.1f%%", html.EscapeString(last.TopFn), last.TopFnPct)
			}
			fmt.Fprint(w, ")</td></tr>")
		}
		if n := len(doc.Load); n > 0 {
			backlog := make([]int, n)
			for i, p := range doc.Load {
				backlog[i] = p.Backlog
			}
			fmt.Fprintf(w, "<tr><th>ingest backlog</th><td>%s (%d samples, now %d)</td></tr>",
				sparkline(backlog), doc.LoadTotal, doc.Load[n-1].Backlog)
		}
		fmt.Fprint(w, "</table>")
	}
	if st := snap.Sweep; st != nil {
		fmt.Fprint(w, "<h2>sweep</h2><table>")
		fmt.Fprintf(w, "<tr><th>scenario</th><td>%s</td></tr>", html.EscapeString(st.Scenario))
		fmt.Fprintf(w, "<tr><th>seeds done</th><td>%d / %d (%d in flight)</td></tr>",
			st.Done, st.Seeds, st.Started-st.Done)
		fmt.Fprintf(w, "<tr><th>last seed</th><td>%d</td></tr>", st.LastSeed)
		fmt.Fprintf(w, "<tr><th>drain segments</th><td>%d</td></tr>", st.Segments)
		fmt.Fprintf(w, "<tr><th>dropped strobes</th><td>%d</td></tr>", st.Dropped)
		fmt.Fprint(w, "</table>")
	}
	fmt.Fprint(w, "</body></html>")
}
