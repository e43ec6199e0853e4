package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"time"

	"kprof/internal/analyze"
	"kprof/internal/export"
	"kprof/internal/tagfile"
)

// The serve workload's system under test — the StatusServer and the
// publisher feeding it — runs in a child process of its own, the serve
// host, so that the CPU time and memory reported for it leave out the
// benchmark's HTTP client and SSE reader. The benchmark drives the host
// over the child's standard input and output, one command line and one
// JSON reply per step:
//
//	open       start a fresh server with the analysis published; reply with its URL
//	start 0|1  start the publisher, traced with 1; reply once it runs
//	stop       stop the publisher; reply with what the host measured
//	close      stop the server
//
// The host replies once, with any failed check, before the first command;
// the end of its input ends it.

// hostReply is one line the serve host writes.
type hostReply struct {
	URL      string     `json:"url,omitempty"`
	Problems []string   `json:"problems,omitempty"`
	Phase    *hostPhase `json:"phase,omitempty"`
}

// hostPhase is what the serve host measured over one phase.
type hostPhase struct {
	Origin      time.Time     `json:"origin"`
	Spans       []span        `json:"spans"`
	PublishUS   []float64     `json:"publish_us"`
	PublishedNS []int64       `json:"published_ns"` // wall clock of each call that pushes an SSE event, Unix ns
	CPU         time.Duration `json:"cpu_ns"`
	Allocs      uint64        `json:"allocs"`
	RSSMB       float64       `json:"rss_mb"`
	SSEDropped  uint64        `json:"sse_dropped"`
	Subscribers int           `json:"subscribers"`
}

// feedEvent is one publisher call at its virtual time in the recorded
// feed: a progress snapshot at its Now, or a fleet window when it closes.
type feedEvent struct {
	at       time.Duration
	progress int // index into Progress, or -1
	window   int // index into Windows, or -1
}

// timeline orders the recorded feed by virtual time and returns the length
// of one replay loop. The publisher replays it one virtual millisecond per
// host millisecond, the cadence a server watching a kernel that runs in
// real time would see.
func (rec *serveRecording) timeline() ([]feedEvent, time.Duration) {
	var evs []feedEvent
	for i, p := range rec.Progress {
		evs = append(evs, feedEvent{at: time.Duration(p.Now), progress: i, window: -1})
	}
	for i, w := range rec.Windows {
		evs = append(evs, feedEvent{at: time.Duration(w.EndUS) * time.Microsecond, progress: -1, window: i})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs, evs[len(evs)-1].at.Truncate(time.Millisecond) + time.Millisecond
}

// serveHostChild is the serve host: it rebuilds the recorded capture's
// analysis, checks it exports the recorded bytes, then follows the
// commands on its standard input.
func serveHostChild(in string) error {
	rec := &serveRecording{}
	if err := readGob(in, rec); err != nil {
		return err
	}
	tags, err := tagfile.ParseString(rec.Tags)
	if err != nil {
		return err
	}
	a := analyze.Stitch(rec.Captures, tags, analyze.ReconstructOptions{Repair: analyze.DefaultRepair()})
	var tb bytes.Buffer
	if err := export.WriteChromeTrace(&tb, a); err != nil {
		return err
	}
	var first hostReply
	if !bytes.Equal(export.MarshalPprof(a, export.PprofOptions{}), rec.Pprof) || !bytes.Equal(tb.Bytes(), rec.Trace) {
		first.Problems = append(first.Problems, "serve: the analysis rebuilt from the recorded segments exports different bytes than the recorded one")
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(first); err != nil {
		return err
	}
	evs, loop := rec.timeline()
	var (
		srv  *export.StatusServer
		stop func() error
		pub  *publisher
	)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		var r hostReply
		switch cmd := sc.Text(); cmd {
		case "open":
			if srv, r.URL, stop, err = startServer(); err == nil {
				srv.PublishAnalysis(a)
			}
		case "start 0", "start 1":
			pub = startPublisher(srv, rec, evs, loop, cmd == "start 1")
		case "stop":
			r.Phase = pub.stop()
			hs := srv.HubStats()
			r.Phase.SSEDropped, r.Phase.Subscribers = hs.SlowDropped, hs.Subscribers
		case "close":
			err = stop()
		default:
			err = fmt.Errorf("serve host: unknown command %q", cmd)
		}
		if err != nil {
			return err
		}
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return sc.Err()
}

// publisher replays the feed into a server until stopped, and measures
// the host process over that time.
type publisher struct {
	done    chan struct{}
	wg      sync.WaitGroup
	tr      *tracer
	root    int
	cpu0    time.Duration
	allocs0 uint64
	ph      hostPhase
}

func startPublisher(srv *export.StatusServer, rec *serveRecording, evs []feedEvent, loop time.Duration, traced bool) *publisher {
	p := &publisher{done: make(chan struct{})}
	if traced {
		p.tr = newTracer()
	}
	resetPeakRSS()
	p.cpu0, p.allocs0 = cpuTime(), mallocs()
	p.root = p.tr.begin(0, "serve.publisher")
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		start := time.Now()
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		for k := 0; ; k++ {
			ev := evs[k%len(evs)]
			due := start.Add(time.Duration(k/len(evs))*loop + ev.at)
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(due))
			select {
			case <-p.done:
				return
			case <-timer.C:
			}
			t0 := time.Now()
			id := p.tr.begin(p.root, "serve.publish")
			if ev.window >= 0 {
				srv.OnFleetWindow(rec.Windows[ev.window])
			} else {
				srv.OnSessionProgress(rec.Progress[ev.progress])
			}
			p.tr.end(id)
			p.ph.PublishUS = append(p.ph.PublishUS, us(time.Since(t0)))
			p.ph.PublishedNS = append(p.ph.PublishedNS, t0.UnixNano())
		}
	}()
	return p
}

func (p *publisher) stop() *hostPhase {
	close(p.done)
	p.wg.Wait()
	p.tr.end(p.root)
	p.ph.CPU = cpuTime() - p.cpu0
	p.ph.Allocs = mallocs() - p.allocs0
	p.ph.RSSMB = peakRSSMB()
	if p.tr != nil {
		p.ph.Origin, p.ph.Spans = p.tr.origin, p.tr.snapshot()
	}
	return &p.ph
}

// serveHost is the benchmark's handle on a running serve host.
type serveHost struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	dec    *json.Decoder
	closed bool
}

// startServeHost starts the serve host on the recording at path and
// records the checks it failed.
func (e *env) startServeHost(o *outcome, path string) (*serveHost, error) {
	cmd := exec.Command(e.self, "-child", childServeHost, "-in", path)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.workers))
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start the serve host: %w", err)
	}
	h := &serveHost{cmd: cmd, in: in, dec: json.NewDecoder(out)}
	var r hostReply
	if err := h.dec.Decode(&r); err != nil {
		h.close()
		return nil, fmt.Errorf("serve host: %w", err)
	}
	o.problems = append(o.problems, r.Problems...)
	return h, nil
}

// call sends one command and reads the reply.
func (h *serveHost) call(cmd string) (hostReply, error) {
	var r hostReply
	if _, err := fmt.Fprintln(h.in, cmd); err != nil {
		return r, fmt.Errorf("serve host %s: %w", cmd, err)
	}
	if err := h.dec.Decode(&r); err != nil {
		return r, fmt.Errorf("serve host %s: %w", cmd, err)
	}
	return r, nil
}

// close ends the host's input and waits for it to exit, killing it if it
// has not within a few seconds. Later calls do nothing.
func (h *serveHost) close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	h.in.Close()
	done := make(chan error, 1)
	go func() { done <- h.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		h.cmd.Process.Kill()
		return fmt.Errorf("serve host did not exit: %v", <-done)
	}
}
