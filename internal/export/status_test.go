// Status endpoint coverage beyond the happy path: routing, the
// fault-injection row, and a live faulted capture driving the progress
// hook end to end.
package export

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kprof/internal/core"
	"kprof/internal/faults"
	"kprof/internal/fleet"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

func statusGet(t *testing.T, srv *StatusServer, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// The served routes answer 200 (profile endpoints only once an analysis
// is published); everything else is a clean 404. /events is exercised by
// the SSE battery in serve_test.go — it streams, so it has no place in a
// one-shot routing sweep.
func TestStatusServerRouting(t *testing.T) {
	srv := NewStatusServer()
	for _, path := range []string{"/", "/status.json", "/timeseries.json"} {
		if rec := statusGet(t, srv, path); rec.Code != 200 {
			t.Fatalf("GET %s = %d, want 200", path, rec.Code)
		}
	}
	for _, path := range []string{"/nope", "/status", "/status.json/extra", "/pprof", "/trace.json"} {
		if rec := statusGet(t, srv, path); rec.Code != 404 {
			t.Fatalf("GET %s = %d, want 404 (profile endpoints have no analysis yet)", path, rec.Code)
		}
	}
	srv.PublishAnalysis(netrecvAnalysis(t, 42, 20*sim.Millisecond))
	for _, path := range []string{"/pprof", "/trace.json"} {
		if rec := statusGet(t, srv, path); rec.Code != 200 {
			t.Fatalf("GET %s after publish = %d, want 200", path, rec.Code)
		}
	}
}

// The faults_injected field rides the progress hook: absent while zero
// (clean sessions keep a clean wire format), present in both views once
// the injector has fired.
func TestStatusServerFaultsInjected(t *testing.T) {
	srv := NewStatusServer()
	srv.OnSessionProgress(core.Progress{Armed: true, Stored: 1, Depth: 1024})
	body := statusGet(t, srv, "/status.json").Body.String()
	if strings.Contains(body, "faults_injected") {
		t.Fatalf("clean session leaked a faults_injected field:\n%s", body)
	}
	if html := statusGet(t, srv, "/").Body.String(); strings.Contains(html, "faults injected") {
		t.Fatalf("clean session rendered a faults row:\n%s", html)
	}

	srv.OnSessionProgress(core.Progress{Armed: true, Stored: 2, Depth: 1024, FaultsInjected: 17})
	var snap StatusSnapshot
	if err := json.Unmarshal(statusGet(t, srv, "/status.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Session == nil || snap.Session.FaultsInjected != 17 {
		t.Fatalf("session status %+v, want 17 faults injected", snap.Session)
	}
	html := statusGet(t, srv, "/").Body.String()
	if !strings.Contains(html, "faults injected") || !strings.Contains(html, "17") {
		t.Fatalf("HTML view missing the faults row:\n%s", html)
	}
}

// A continuous faulted capture drives the hook through arm, drains and
// disarm; the server's final count must agree with the injector's own
// statistics — the live view never under- or over-reports corruption.
func TestStatusServerLiveFaultedSession(t *testing.T) {
	srv := NewStatusServer()
	m := core.NewMachine(kernel.Config{Seed: 42})
	s, err := core.NewSession(m, core.ProfileConfig{
		Mode:   core.CaptureContinuous,
		Depth:  512,
		Faults: &faults.Config{Seed: 9, Rate: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetProgress(srv.OnSessionProgress)
	s.Arm()
	if _, err := workload.NetReceive(m, 50*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	if err := s.DrainErr(); err != nil {
		t.Fatal(err)
	}
	st, ok := s.FaultStats()
	if !ok || st.Injected() == 0 {
		t.Fatalf("faulted session injected nothing: %+v ok=%v", st, ok)
	}
	snap := srv.Snapshot().Session
	if snap == nil || snap.FaultsInjected != st.Injected() {
		t.Fatalf("status reports %+v, injector says %d", snap, st.Injected())
	}
}

// The fleet section rides OnFleetProgress: absent until the hook fires,
// then present in both views, and a real fleet run drives it end to end
// with a drained final state.
func TestStatusServerFleet(t *testing.T) {
	srv := NewStatusServer()
	if body := statusGet(t, srv, "/status.json").Body.String(); strings.Contains(body, `"fleet"`) {
		t.Fatalf("idle server leaked a fleet section:\n%s", body)
	}
	machines, err := fleet.MachinesFromMix(2, "netrecv", 900, workload.Params{Duration: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.Run(fleet.Config{
		Machines:   machines,
		Window:     20 * sim.Millisecond,
		OnProgress: srv.OnFleetProgress,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap StatusSnapshot
	if err := json.Unmarshal(statusGet(t, srv, "/status.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	fs := snap.Fleet
	if fs == nil {
		t.Fatal("fleet section missing after a fleet run")
	}
	if fs.Machines != 2 || fs.MachinesDone != 2 || fs.Backlog != 0 {
		t.Fatalf("final fleet status not drained: %+v", fs)
	}
	if fs.SegmentsCommitted != res.Segments || fs.RecordsCommitted != res.Records {
		t.Fatalf("status totals %d/%d, result says %d/%d",
			fs.SegmentsCommitted, fs.RecordsCommitted, res.Segments, res.Records)
	}
	if fs.WatermarkUS != res.WatermarkUS || fs.WindowsClosed != len(res.Windows) {
		t.Fatalf("status watermark/windows %d/%d, result says %d/%d",
			fs.WatermarkUS, fs.WindowsClosed, res.WatermarkUS, len(res.Windows))
	}
	html := statusGet(t, srv, "/").Body.String()
	for _, want := range []string{"fleet", "machines done", "watermark", "windows closed"} {
		if !strings.Contains(html, want) {
			t.Fatalf("HTML view missing %q:\n%s", want, html)
		}
	}
}

// A client that stalls partway through its request headers is cut off
// once the header deadline passes, while a well-behaved client is served;
// headers past the size cap are refused; and stopping the server reports
// no error of its own.
func TestStatusServerCutsOffStalledClient(t *testing.T) {
	srv := NewStatusServer()
	const deadline = 200 * time.Millisecond
	url, stop, err := srv.start("127.0.0.1:0", deadline)
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(url, "http://")

	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /status.json HTTP/1.1\r\nHost: kprof\r\nX-Partial: "); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stalled.SetReadDeadline(time.Now().Add(20 * deadline))
	_, err = io.ReadAll(stalled)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if took := time.Since(start); took < deadline/2 {
		t.Fatalf("stalled client cut off after %v, before the %v header deadline", took, deadline)
	}

	resp, err := http.Get(url + "/status.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status.json = %d after the stalled client, want 200", resp.StatusCode)
	}

	req, err := http.NewRequest("GET", url+"/status.json", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("x", 2*maxHeaderBytes))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized headers got %d, want 431", resp.StatusCode)
	}

	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}
