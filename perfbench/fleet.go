package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"kprof/internal/fleet"
	"kprof/internal/hw"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
	"kprof/internal/workload"
)

const (
	// The fleet workload's streams: one machine per entry of the mix, each
	// running fleetVirtual of its scenario, recorded once before timing.
	fleetMix      = "netrecv=3,proday=1"
	fleetMachines = 4
	fleetVirtual  = 4 * sim.Second
	// fleetProjectors is the projection-worker count; it is also nproc on
	// the two-core reference host, and the report does not depend on it.
	fleetProjectors = 2
	fleetWarmup     = 3
)

// streamRecord is one machine's recorded segment stream in a form a
// child process can hand back: the tag file travels in its text format.
type streamRecord struct {
	Machine  int
	Clock    hw.Config
	Tags     string
	Segments []fleet.RawSegment
}

// fleetRecording is the fleet workload's input, recorded in a child
// process, with the report one RunSources over it wrote there.
type fleetRecording struct {
	Streams []streamRecord
	Report  []byte
}

// recordFleetChild runs the fleet's machines live once, in a child
// process, and keeps their segment streams for replay.
func recordFleetChild(seed uint64) (*fleetRecording, error) {
	machines, err := fleet.MachinesFromMix(fleetMachines, fleetMix, seed, workload.Params{Duration: fleetVirtual})
	if err != nil {
		return nil, err
	}
	rec := &fleetRecording{}
	sources := make([]fleet.Source, len(machines))
	for i, mc := range machines {
		rs, err := fleet.Record(mc)
		if err != nil {
			return nil, err
		}
		var tags strings.Builder
		if err := rs.TagFile.Format(&tags); err != nil {
			return nil, err
		}
		rec.Streams = append(rec.Streams, streamRecord{Machine: rs.Machine, Clock: rs.Clock, Tags: tags.String(), Segments: rs.Segments})
		sources[i] = rs
	}
	res, err := fleet.RunSources(fleet.Config{Workers: fleetProjectors}, sources)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := res.Write(&b, summaryTop); err != nil {
		return nil, err
	}
	rec.Report = b.Bytes()
	return rec, nil
}

// replaySources rebuilds the recorded streams as fleet.ReplaySources.
func (rec *fleetRecording) replaySources() ([]*fleet.ReplaySource, error) {
	out := make([]*fleet.ReplaySource, len(rec.Streams))
	for i, s := range rec.Streams {
		tags, err := tagfile.ParseString(s.Tags)
		if err != nil {
			return nil, fmt.Errorf("machine %d tag file: %w", s.Machine, err)
		}
		out[i] = &fleet.ReplaySource{Machine: s.Machine, Clock: s.Clock, TagFile: tags, Segments: s.Segments}
	}
	return out, nil
}

// tracedSource wraps a replayed stream to record a span per source and
// one per call into the fleet's emit — decode, reconstruct and the
// staging Append, including time blocked on a full store.
type tracedSource struct {
	*fleet.ReplaySource
	tr   *tracer
	root int
}

func (ts *tracedSource) Run(emit func(fleet.RawSegment) error) error {
	src := ts.tr.begin(ts.root, "fleet.source")
	defer ts.tr.end(src)
	return ts.ReplaySource.Run(func(seg fleet.RawSegment) error {
		id := ts.tr.begin(src, "fleet.emit")
		defer ts.tr.end(id)
		return emit(seg)
	})
}

// fleetRep is one timed RunSources call and its report.
type fleetRep struct {
	root        int
	wall        time.Duration // RunSources call to report written
	setup       time.Duration // RunSources call to first staged segment
	commitTail  time.Duration // last staged segment to RunSources' return
	cpu         time.Duration
	rssMB       float64
	allocs      uint64
	report      []byte
	res         *fleet.Result
	backlogMax  int
	progress    int
	backlogFull int
}

// fleetOnce makes one RunSources call over the recorded streams with
// fleetProjectors workers and writes the text report, as cmd/kprof -fleet
// does.
func fleetOnce(streams []*fleet.ReplaySource, tr *tracer) (*fleetRep, error) {
	rep := &fleetRep{}
	rep.root = tr.begin(0, "fleet.run")
	sources := make([]fleet.Source, len(streams))
	for i, s := range streams {
		if tr != nil {
			sources[i] = &tracedSource{ReplaySource: s, tr: tr, root: rep.root}
		} else {
			sources[i] = s
		}
	}
	var mu sync.Mutex
	var firstStaged, lastStaged time.Time
	staged := 0
	cfg := fleet.Config{
		Workers: fleetProjectors,
		OnProgress: func(p fleet.Progress) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			if p.SegmentsStaged > staged {
				if staged == 0 {
					firstStaged = now
				}
				staged, lastStaged = p.SegmentsStaged, now
			}
			rep.progress++
			rep.backlogMax = max(rep.backlogMax, p.Backlog)
			if p.Backlog >= fleet.DefaultStaging {
				rep.backlogFull++
			}
		},
	}
	resetPeakRSS()
	cpu0, allocs0 := cpuTime(), mallocs()
	start := time.Now()
	res, err := fleet.RunSources(cfg, sources)
	returned := time.Now()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	rs := tr.begin(rep.root, "render.report")
	err = res.Write(&b, summaryTop)
	tr.end(rs)
	rep.wall = time.Since(start)
	tr.end(rep.root)
	if err != nil {
		return nil, err
	}
	rep.cpu = cpuTime() - cpu0
	rep.allocs = mallocs() - allocs0
	rep.rssMB = peakRSSMB()
	mu.Lock()
	rep.setup, rep.commitTail = firstStaged.Sub(start), returned.Sub(lastStaged)
	mu.Unlock()
	rep.report, rep.res = b.Bytes(), res
	return rep, nil
}

func runFleet(e *env) (*outcome, error) {
	o := newOutcome()
	rec := &fleetRecording{}
	if err := e.child(childRecordFleet, e.seed, rec); err != nil {
		return nil, err
	}
	streams, err := rec.replaySources()
	if err != nil {
		return nil, err
	}
	var segments, records int
	for _, s := range streams {
		segments += len(s.Segments)
		for _, seg := range s.Segments {
			records += len(seg.Records)
			o.fails.count("strobe", len(seg.Records)+int(seg.Dropped), int(seg.Dropped))
		}
	}
	// Untimed warm-up repetitions let the heap grow and the code fault in
	// before the first timed one.
	for i := 0; i < fleetWarmup; i++ {
		if _, err := fleetOnce(streams, nil); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	untraced, traced, err := fleetSeries(o, streams, tr, e.budget, segments, records)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(untraced[0].report, rec.Report) {
		o.problem("fleet: the replayed report differs from the one written where the streams were recorded")
	}
	if len(o.problems) > 0 {
		return o, nil
	}
	if !e.trace {
		wall := durSeconds(untraced, func(r *fleetRep) time.Duration { return r.wall })
		run := median(wall)
		o.metrics["setup_s"] = median(durSeconds(untraced, func(r *fleetRep) time.Duration { return r.setup }))
		o.metrics["run_s"] = run
		o.metrics["ns_per_record"] = run * 1e9 / float64(records)
		o.metrics["cpu_s"] = median(durSeconds(untraced, func(r *fleetRep) time.Duration { return r.cpu }))
		o.metrics["peak_rss_mb"] = median(values(untraced, func(r *fleetRep) float64 { return r.rssMB }))
		o.metrics["req_p50_ms"] = run * 1e3
		o.note("%d timed repetitions over %d machines, %d segments, %d records",
			len(untraced), len(streams), segments, records)
		return o, nil
	}

	o.spans = tr.snapshot()
	t := newSpanTree(o.spans)
	zeroLayerMetrics(o)
	m := o.metrics
	var emitMs, usPerSeg, root []float64
	for _, r := range traced {
		emitMs = append(emitMs, ms(t.total(r.root, "fleet.emit")))
		usPerSeg = append(usPerSeg, us(r.wall)/float64(segments))
		root = append(root, r.wall.Seconds())
	}
	m["fleet.us_per_segment"] = median(usPerSeg)
	m["fleet.emit_ms"] = median(emitMs)
	m["fleet.backlog_max"] = median(values(traced, func(r *fleetRep) float64 { return float64(r.backlogMax) }))
	m["fleet.backlog_full_ratio"] = median(values(traced, func(r *fleetRep) float64 {
		return ratio(float64(r.backlogFull), float64(r.progress))
	}))
	m["fleet.commit_tail_ms"] = median(values(traced, func(r *fleetRep) float64 { return ms(r.commitTail) }))
	m["fleet.allocs_per_record"] = median(values(traced, func(r *fleetRep) float64 { return float64(r.allocs) / float64(records) }))
	m["render.report_ms"] = median(values(traced, func(r *fleetRep) float64 { return ms(t.total(r.root, "render.report")) }))
	m["fleet.segments"] = float64(traced[0].res.Segments)
	m["fleet.records"] = float64(traced[0].res.Records)
	m["fleet.windows"] = float64(len(traced[0].res.Windows))
	untracedWall := durSeconds(untraced, func(r *fleetRep) time.Duration { return r.wall })
	untracedRun := median(untracedWall)
	m["req_p99_ms"] = percentile(untracedWall, 99) * 1e3
	m["trace.overhead_ratio"] = median(root)/untracedRun - 1
	o.note("%d untraced and %d traced repetitions: traced median %.4f s against untraced %.4f s",
		len(untraced), len(traced), median(root), untracedRun)
	return o, nil
}

// fleetSeries repeats fleetOnce for budget (at least minReps times) and
// checks every repetition against the recorded streams and the first
// untraced one. With a tracer it alternates untraced and traced
// repetitions, so drift in the host's speed falls on both alike.
func fleetSeries(o *outcome, streams []*fleet.ReplaySource, tr *tracer, budget time.Duration, segments, records int) (untraced, traced []*fleetRep, err error) {
	once := func(tr *tracer, reps []*fleetRep) ([]*fleetRep, error) {
		rep, err := fleetOnce(streams, tr)
		if err != nil {
			return nil, err
		}
		o.fails.count("segment", segments, segments-rep.res.Segments)
		if rep.res.Segments != segments || rep.res.Records != records {
			o.problem("fleet: committed %d segments and %d records of the %d and %d recorded",
				rep.res.Segments, rep.res.Records, segments, records)
		}
		if len(untraced) > 0 && !bytes.Equal(rep.report, untraced[0].report) {
			o.problem("fleet: a repetition (traced: %v) wrote a different report than the first", tr != nil)
		}
		// Keep only each series' first result; the rest are compared and
		// dropped.
		if len(reps) > 0 {
			rep.res = nil
		}
		return append(reps, rep), nil
	}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		if untraced, err = once(nil, untraced); err != nil {
			return nil, nil, err
		}
		if tr != nil {
			if traced, err = once(tr, traced); err != nil {
				return nil, nil, err
			}
		}
	}
	return untraced, traced, nil
}

func values(reps []*fleetRep, f func(*fleetRep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func durSeconds(reps []*fleetRep, f func(*fleetRep) time.Duration) []float64 {
	return values(reps, func(r *fleetRep) float64 { return f(r).Seconds() })
}
