package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/export"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

const (
	// prodayVirtual is the proday workload's virtual run length: several
	// seconds of the production-day mix at the default 2000 connections.
	prodayVirtual = 4 * sim.Second
	// setupVirtual is the virtual length of the set-up command line.
	setupVirtual = sim.Millisecond
	// setupReps is how many times a run measures set-up; setup_s is the
	// median.
	setupReps = 21
	// minReps is the fewest timed repetitions a run makes, however long
	// they take.
	minReps = 3
	// summaryTop is the CLI's default -top.
	summaryTop = 20
)

func prodayArgs(seed uint64, d sim.Time, pprofPath string) []string {
	return []string{"-scenario", "proday", "-drain", "-report", "summary", "-pprof", pprofPath,
		"-seed", strconv.FormatUint(seed, 10), "-duration", time.Duration(d).String()}
}

// cliSeries is a run of repetitions of one CLI command line.
type cliSeries struct {
	wall, cpu, rss []float64 // seconds, seconds, MB
	stdout         []byte    // identical across repetitions
	pprof          []byte    // identical across repetitions (proday)
}

// repeatCLI runs args until budget is spent (at least minReps times) and
// checks that every repetition prints the same bytes and writes the same
// profile.
func (e *env) repeatCLI(o *outcome, what string, args []string, pprofPath string, budget time.Duration) (*cliSeries, error) {
	cs := &cliSeries{}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		if pprofPath != "" {
			// A profile left by the last repetition must not stand in for
			// one this repetition failed to write.
			if err := os.Remove(pprofPath); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
		r, err := e.kprofRun(args...)
		if err != nil {
			return nil, err
		}
		if !e.checkCLI(o, what, r) {
			return cs, nil
		}
		var pp []byte
		if pprofPath != "" {
			if pp, err = os.ReadFile(pprofPath); err != nil {
				o.problem("%s: kprof wrote no profile: %v", what, err)
				return cs, nil
			}
		}
		cs.wall = append(cs.wall, r.wall.Seconds())
		cs.cpu = append(cs.cpu, r.cpu.Seconds())
		cs.rss = append(cs.rss, r.rssMB)
		if i == 0 {
			cs.stdout, cs.pprof = r.stdout, pp
			continue
		}
		if !bytes.Equal(r.stdout, cs.stdout) || !bytes.Equal(pp, cs.pprof) {
			o.problem("%s: repetition %d printed different output or profile than repetition 0", what, i)
		}
	}
	return cs, nil
}

// setupCLI measures set-up: the command line with one seed and 1 ms of
// virtual time, setupReps times.
func (e *env) setupCLI(o *outcome, what string, args []string) ([]float64, error) {
	var walls []float64
	for i := 0; i < setupReps; i++ {
		r, err := e.kprofRun(args...)
		if err != nil {
			return nil, err
		}
		if e.checkCLI(o, what, r) {
			walls = append(walls, r.wall.Seconds())
		}
	}
	return walls, nil
}

// cliEndToEnd fills the end-to-end metrics of a CLI workload.
func cliEndToEnd(o *outcome, setup []float64, cs *cliSeries, records int) {
	run := median(cs.wall)
	o.metrics["setup_s"] = median(setup)
	o.metrics["run_s"] = run
	o.metrics["ns_per_record"] = run * 1e9 / float64(records)
	o.metrics["cpu_s"] = median(cs.cpu)
	o.metrics["peak_rss_mb"] = median(cs.rss)
	o.metrics["req_p50_ms"] = run * 1e3
	o.note("%d timed repetitions, %d set-up repetitions, %d records each", len(cs.wall), len(setup), records)
}

func runProday(e *env) (*outcome, error) {
	o := newOutcome()
	if err := e.gateCLI(o); err != nil {
		return nil, err
	}
	pprofPath := filepath.Join(e.work, "proday.pb.gz")
	setup, err := e.setupCLI(o, "proday set-up", prodayArgs(e.seed, setupVirtual, pprofPath))
	if err != nil {
		return nil, err
	}
	budget := e.budget
	if e.trace {
		budget /= 2
	}
	cs, err := e.repeatCLI(o, "proday", prodayArgs(e.seed, prodayVirtual, pprofPath), pprofPath, budget)
	if err != nil {
		return nil, err
	}
	if len(o.problems) > 0 || len(cs.wall) == 0 {
		return o, nil
	}
	records, corrupt, err := summaryRecords(cs.stdout)
	if err != nil {
		return nil, err
	}
	o.fails.count("record", records*len(cs.wall), corrupt*len(cs.wall))
	if !e.trace {
		cliEndToEnd(o, setup, cs, records)
		return o, nil
	}
	return o, e.tracedProday(o, cs, budget)
}

// prodayRep is one in-process proday run.
type prodayRep struct {
	root          int
	run, unarmed  *machineRun
	stdout, pprof []byte
	stats         analyze.DecodeStats
	events, items int
	decoded       int
	analyzeAllocs uint64
	retainedMB    float64
}

// prodayInProcess makes the calls cmd/kprof makes for
// "-scenario proday -drain -report summary -pprof FILE", with a span at
// each layer boundary under the root span proday.run, and renders the
// bytes the CLI would print and write. Measurement-only work — the live
// heap, the decode-only pass and the unarmed twin — runs after the root
// span closes, and only when extras is set.
func prodayInProcess(tr *tracer, seed uint64, p workload.Params, prof core.ProfileConfig, top int, extras bool) (*prodayRep, error) {
	sc, _ := workload.FindScenario("proday")
	rep := &prodayRep{root: tr.begin(0, "proday.run")}
	run, err := runMachine(tr, rep.root, seed, sc, p, prof, true)
	if err != nil {
		return nil, err
	}
	var a *analyze.Analysis
	a0 := mallocs()
	tr.timed(rep.root, "analyze", func() { a = run.s.Analyze() })
	rep.analyzeAllocs = mallocs() - a0
	var out bytes.Buffer
	tr.timed(rep.root, "render.summary", func() {
		fmt.Fprintf(&out, "%s\n\n", run.line)
		err = a.WriteSummary(&out, top)
	})
	if err != nil {
		return nil, err
	}
	var pp bytes.Buffer
	tr.timed(rep.root, "render.pprof", func() { err = export.WritePprof(&pp, a, export.PprofOptions{}) })
	if err != nil {
		return nil, err
	}
	tr.end(rep.root)

	rep.run, rep.stdout, rep.pprof = run, out.Bytes(), pp.Bytes()
	rep.stats, rep.events, rep.items = a.Stats, len(a.Events), len(a.Items)
	if !extras {
		return rep, nil
	}

	// The analysis' retained size is the live heap with it held minus the
	// live heap once it is dropped.
	held := liveHeapMB()
	runtime.KeepAlive(a)
	rep.retainedMB = held - liveHeapMB()
	rep.decoded = decodePass(tr, 0, run)
	if rep.unarmed, err = runMachine(tr, 0, seed, sc, p, prof, false); err != nil {
		return nil, err
	}
	return rep, nil
}

// tracedProday checks the in-process path against the golden file, makes
// the traced repetitions in child processes, checks each against the
// CLI's output, and fills the per-layer metrics.
func (e *env) tracedProday(o *outcome, cs *cliSeries, budget time.Duration) error {
	golden, err := os.ReadFile(goldenProdaySummary)
	if err != nil {
		return err
	}
	g, err := prodayInProcess(nil, 42, workload.Params{Duration: 600 * sim.Millisecond, Conns: 100, Rate: 300},
		core.ProfileConfig{Mode: core.CaptureContinuous, Depth: 2048}, 15, false)
	if err != nil {
		return err
	}
	if _, rest, _ := bytes.Cut(g.stdout, []byte("\n\n")); !bytes.Equal(rest, golden) {
		o.problem("golden proday: in-process summary differs from %s", goldenProdaySummary)
	}

	reps, plains, err := e.tracedReps(o, "proday", budget,
		[]childCall{{childProdayRep, e.seed}}, []childCall{{childProdayPlain, e.seed}})
	if err != nil {
		return err
	}
	for _, r := range append(append([]*repResult(nil), reps...), plains...) {
		if !bytes.Equal(r.Stdout, cs.stdout) {
			o.problem("proday: in-process summary differs from the CLI's output")
		}
		if !bytes.Equal(r.Pprof, cs.pprof) {
			o.problem("proday: in-process profile differs from the CLI's -pprof file")
		}
	}
	layerMedians(o, reps)
	o.metrics["req_p99_ms"] = percentile(cs.wall, 99) * 1e3
	traceOverhead(o, "proday.run", reps, plains)
	return nil
}

// traceOverhead reports the traced root span's median over the median
// wall time of the same calls made with no tracer.
func traceOverhead(o *outcome, root string, reps, plains []*repResult) {
	traced := median(rootValues(reps))
	plain := median(rootValues(plains))
	o.metrics["trace.overhead_ratio"] = traced/plain - 1
	o.note("%d repetitions: %s median %.4f s traced, %.4f s untraced", len(reps), root, traced, plain)
}

func rootValues(reps []*repResult) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.Values["root"]
	}
	return out
}

// prodayRepChild is one traced repetition, run in a child process.
func prodayRepChild(seed uint64) (*repResult, error) {
	tr := newTracer()
	rep, err := prodayCLICalls(tr, seed, true)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	sameCounts(o, "proday", rep.run, rep.unarmed)
	failuresOf(o, rep.run, rep.stats)

	spans := tr.snapshot()
	t := newSpanTree(spans)
	var decode, unarmed time.Duration
	for _, s := range spans {
		switch {
		case s.Parent == 0 && s.Name == "decode":
			decode = s.dur()
		case s.Parent == 0 && s.Name == "capture.unarmed":
			unarmed = s.dur()
		}
	}
	recs := float64(rep.stats.Records)
	capture := t.total(rep.root, "capture").Seconds()
	an := t.total(rep.root, "analyze").Seconds()
	values := map[string]float64{
		"setup.machine_ms":          ms(t.total(rep.root, "setup.machine")),
		"setup.scenario_ms":         ms(t.total(rep.root, "setup.scenario")),
		"setup.session_ms":          ms(t.total(rep.root, "setup.session")),
		"setup.allocs":              float64(rep.run.setupAllocs),
		"capture.s":                 capture,
		"capture.ns_per_record":     capture * 1e9 / recs,
		"capture.allocs_per_record": float64(rep.run.captureAllocs) / recs,
		"capture.unarmed_s":         unarmed.Seconds(),
		"card.s":                    capture - unarmed.Seconds(),
		"analyze.s":                 an,
		"analyze.ns_per_record":     an * 1e9 / recs,
		"analyze.allocs_per_record": float64(rep.analyzeAllocs) / recs,
		"analyze.retained_mb":       rep.retainedMB,
		"decode.ns_per_record":      decode.Seconds() * 1e9 / float64(rep.decoded),
		"reconstruct.ns_per_record": (an - decode.Seconds()) * 1e9 / recs,
		"render.summary_ms":         ms(t.total(rep.root, "render.summary")),
		"render.pprof_ms":           ms(t.total(rep.root, "render.pprof")),
		"root":                      t.get(rep.root).dur().Seconds(),
	}
	return &repResult{Origin: tr.origin, Spans: spans, Values: values, Counts: rep.counts(),
		Stdout: rep.stdout, Pprof: rep.pprof, Fails: o.fails.snapshot(), Problems: o.problems}, nil
}

// prodayCLICalls makes the proday workload's CLI calls in process.
func prodayCLICalls(tr *tracer, seed uint64, extras bool) (*prodayRep, error) {
	return prodayInProcess(tr, seed, workload.Params{Duration: prodayVirtual},
		core.ProfileConfig{Mode: core.CaptureContinuous}, summaryTop, extras)
}

// prodayPlainChild is the untraced twin of prodayRepChild: the same calls
// with no tracer and no measurement-only extras, timed whole.
func prodayPlainChild(seed uint64) (*repResult, error) {
	start := time.Now()
	rep, err := prodayCLICalls(nil, seed, false)
	if err != nil {
		return nil, err
	}
	return &repResult{Values: map[string]float64{"root": time.Since(start).Seconds()},
		Counts: rep.counts(), Stdout: rep.stdout, Pprof: rep.pprof}, nil
}

// counts lists a repetition's exact counts by metric name.
func (r *prodayRep) counts() map[string]float64 {
	return map[string]float64{
		"sim.virtual_ms":     float64(r.run.virtual) / float64(sim.Millisecond),
		"kernel.ticks":       float64(r.run.ticks),
		"card.strobes":       float64(r.run.strobes),
		"card.segments":      float64(r.run.segments),
		"card.dropped":       float64(r.run.dropped),
		"analyze.events":     float64(r.events),
		"analyze.items":      float64(r.items),
		"analyze.corrupt":    float64(r.stats.CorruptRecords),
		"analyze.repaired":   float64(r.stats.RepairedTimestamps),
		"render.pprof_bytes": float64(len(r.pprof)),
	}
}

// zeroLayerMetrics sets every per-layer metric to 0, the value for a layer
// the workload does not exercise; the workload then overwrites the ones it
// measures.
func zeroLayerMetrics(o *outcome) {
	for _, m := range perLayer {
		o.metrics[m.Name] = 0
	}
}
