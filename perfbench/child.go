package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// Every simulated machine leaves its process goroutines parked when its
// scenario ends: a proday machine leaves about 2000. A CLI command exits
// and takes them with it, but a benchmark process that ran machines would
// carry them — and the garbage collector would scan their stacks — through
// everything it timed afterwards. So the benchmark process never simulates.
// Traced repetitions and the recording of replay inputs run in child
// processes of this binary, which hand their results back in a gob file.

// Child tasks, selected with -child. A plain task makes the same calls as
// its traced twin with no tracer, as the baseline of the tracing overhead.
const (
	childProdayRep   = "proday-rep"
	childProdayPlain = "proday-plain"
	childSweepRun    = "sweep-run"
	childSweepPlain  = "sweep-plain"
	childSweepLayers = "sweep-layers"
	childRecordFleet = "record-fleet"
	childRecordServe = "record-serve"
	childServeHost   = "serve-host"
	childServePart   = "serve-part"
)

// repResult is what one traced child hands back: its spans, placed on the
// parent's timeline by Origin, its per-layer values and exact counts, the
// bytes it rendered, and its failure and correctness accounting. When one
// repetition takes several children, their values and counts add up.
type repResult struct {
	Origin   time.Time
	Spans    []span
	Values   map[string]float64
	Counts   map[string]float64
	Stdout   []byte
	Pprof    []byte
	Fails    map[string][2]int
	Problems []string
}

// runChildTask runs the task named by -child and writes its result to out.
// The serve host instead serves the recording in until its input ends.
func runChildTask(task string, seed uint64, workers int, in, out string) error {
	var v any
	var err error
	switch task {
	case childServeHost:
		return serveHostChild(in)
	case childProdayRep:
		v, err = prodayRepChild(seed)
	case childProdayPlain:
		v, err = prodayPlainChild(seed)
	case childSweepRun:
		v, err = sweepRunChild(seed, workers)
	case childSweepPlain:
		v, err = sweepPlainChild(seed, workers)
	case childSweepLayers:
		v, err = sweepLayersChild(seed)
	case childRecordFleet:
		v, err = recordFleetChild(seed)
	case childRecordServe:
		v, err = recordServeChild(seed)
	case childServePart:
		v, err = servePartChild(in)
	default:
		return fmt.Errorf("unknown -child task %q", task)
	}
	if err != nil {
		return err
	}
	return writeGob(out, v)
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// childOut is where the child task writes its result.
func (e *env) childOut(task string) string { return filepath.Join(e.work, "child-"+task+".gob") }

// child runs task for seed in a child process of this binary and decodes
// its result into v.
func (e *env) child(task string, seed uint64, v any) error { return e.childIn(task, seed, "", v) }

// childIn is child for a task that also reads the file in.
func (e *env) childIn(task string, seed uint64, in string, v any) error {
	out := e.childOut(task)
	cmd := exec.Command(e.self, "-child", task, "-seed", strconv.FormatUint(seed, 10), "-in", in, "-out", out)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.workers))
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s: %w", task, err)
	}
	return readGob(out, v)
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("read %s: %w", path, err)
	}
	return nil
}

// childCall is one child task run for one seed.
type childCall struct {
	task string
	seed uint64
}

// tracedReps makes repetitions until budget is spent (at least minReps of
// them). Each one runs the traced child calls and the plain ones. It
// folds every traced child's spans into one timeline and every child's
// accounting into o, sums each repetition's values and counts over its
// children, and fails when exact counts differ between repetitions or
// between a repetition's traced and plain calls.
func (e *env) tracedReps(o *outcome, what string, budget time.Duration, traced, plain []childCall) ([]*repResult, []*repResult, error) {
	tr := newTracer()
	var reps, plains []*repResult
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		// The order alternates, so that neither side always runs on a
		// host just warmed or just loaded by the other.
		var rep, pl *repResult
		var err error
		if i%2 == 0 {
			if rep, err = e.repOf(o, tr, traced); err == nil {
				pl, err = e.repOf(o, nil, plain)
			}
		} else {
			if pl, err = e.repOf(o, nil, plain); err == nil {
				rep, err = e.repOf(o, tr, traced)
			}
		}
		if err != nil {
			return nil, nil, err
		}
		for k, v := range pl.Counts {
			if rep.Counts[k] != v {
				o.problem("%s: exact count %s differs between the traced and the untraced run: %v and %v", what, k, rep.Counts[k], v)
			}
		}
		if i > 0 {
			for k, v := range reps[0].Counts {
				if rep.Counts[k] != v {
					o.problem("%s: exact count %s differs between repetitions: %v and %v", what, k, v, rep.Counts[k])
				}
			}
		}
		reps, plains = append(reps, rep), append(plains, pl)
	}
	o.spans = tr.snapshot()
	return reps, plains, nil
}

// repOf runs one repetition's child calls in order, merging their spans
// into tr, and sums their values and counts.
func (e *env) repOf(o *outcome, tr *tracer, calls []childCall) (*repResult, error) {
	rep := &repResult{Values: make(map[string]float64), Counts: make(map[string]float64)}
	for _, c := range calls {
		r := &repResult{}
		if err := e.child(c.task, c.seed, r); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.merge(r.Spans, r.Origin)
		}
		for k, f := range r.Fails {
			o.fails.count(k, f[0], f[1])
		}
		o.problems = append(o.problems, r.Problems...)
		for k, v := range r.Values {
			rep.Values[k] += v
		}
		for k, v := range r.Counts {
			rep.Counts[k] += v
		}
		rep.Stdout = append(rep.Stdout, r.Stdout...)
		rep.Pprof = append(rep.Pprof, r.Pprof...)
	}
	return rep, nil
}

// merge appends another tracer's spans, renumbered after the spans already
// held and shifted onto this tracer's timeline.
func (t *tracer) merge(spans []span, origin time.Time) {
	shift := origin.Sub(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
}

// layerMedians sets each per-layer metric a repetition reported to its
// median over the repetitions, and the exact counts to repetition 0's.
func layerMedians(o *outcome, reps []*repResult) {
	zeroLayerMetrics(o)
	series := make(map[string][]float64)
	for _, r := range reps {
		for k, v := range r.Values {
			series[k] = append(series[k], v)
		}
	}
	for k, xs := range series {
		o.metrics[k] = median(xs)
	}
	for k, v := range reps[0].Counts {
		o.metrics[k] = v
	}
}
