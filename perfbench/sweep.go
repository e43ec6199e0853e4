package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/sim"
	"kprof/internal/sweep"
	"kprof/internal/workload"
)

const (
	// sweepSeeds short proday seeds per sweep; sweepVirtual each. Set-up
	// dominates: a seed builds a machine with 2000 sockets and the MIB,
	// instruments and links, then runs briefly.
	sweepSeeds   = 32
	sweepVirtual = 50 * sim.Millisecond
)

func sweepArgs(first uint64, n, workers int, d sim.Time) []string {
	return []string{"-scenario", "proday",
		"-seeds", fmt.Sprintf("%d..%d", first, first+uint64(n)-1),
		"-parallel", strconv.Itoa(workers), "-drain", "-report", "sweep",
		"-duration", time.Duration(d).String()}
}

func sweepSeedList(first uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = first + uint64(i)
	}
	return seeds
}

// sweepConfig is the sweep.Config the CLI builds for sweepArgs.
func sweepConfig(first uint64, n, workers int, d sim.Time) sweep.Config {
	return sweep.Config{
		Scenario: "proday",
		Seeds:    sweepSeedList(first, n),
		Parallel: workers,
		Params:   workload.Params{Duration: d},
		Profile:  core.ProfileConfig{Mode: core.CaptureContinuous},
	}
}

// renderSweep renders the bytes cmd/kprof prints for a drained sweep.
func renderSweep(res *sweep.Result) ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s sweep: %d seeds on %d workers\n", res.Scenario, len(res.PerSeed), res.Workers)
	fmt.Fprintf(&b, "first seed: %s\n", res.PerSeed[0].Workload)
	var segs int
	var lost uint64
	for _, r := range res.PerSeed {
		segs += r.Segments
		lost += r.Dropped
	}
	fmt.Fprintf(&b, "drained %d segments across %d seeds, %d strobes lost\n", segs, len(res.PerSeed), lost)
	b.WriteString("\n")
	err := res.Agg.Write(&b, summaryTop)
	return b.Bytes(), err
}

func sweepRecords(res *sweep.Result) int {
	n := 0
	for _, r := range res.PerSeed {
		n += r.Records
	}
	return n
}

func runSweep(e *env) (*outcome, error) {
	o := newOutcome()
	if err := e.gateCLI(o); err != nil {
		return nil, err
	}
	setup, err := e.setupCLI(o, "sweep set-up", sweepArgs(e.seed, 1, e.workers, setupVirtual))
	if err != nil {
		return nil, err
	}
	budget := e.budget
	if e.trace {
		budget /= 2
	}
	cs, err := e.repeatCLI(o, "sweep", sweepArgs(e.seed, sweepSeeds, e.workers, sweepVirtual), "", budget)
	if err != nil {
		return nil, err
	}
	if len(o.problems) > 0 || len(cs.wall) == 0 {
		return o, nil
	}
	if e.trace {
		return o, e.tracedSweep(o, cs, budget)
	}
	// The CLI prints no exact record count; an untimed in-process run of
	// the same sweep supplies it and must print the same bytes.
	res, err := sweep.Run(sweepConfig(e.seed, sweepSeeds, e.workers, sweepVirtual))
	if err != nil {
		return nil, err
	}
	out, err := renderSweep(res)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(out, cs.stdout) {
		o.problem("sweep: in-process sweep.Run renders different bytes than the CLI")
	}
	records := sweepRecords(res)
	for _, r := range res.PerSeed {
		o.fails.count("strobe", r.Records+int(r.Dropped), int(r.Dropped))
		o.fails.count("record", r.Records, r.Corrupt)
	}
	cliEndToEnd(o, setup, cs, records)
	return o, nil
}

// sweepChunk is how many seeds one layer-pass child profiles: each seed
// leaves two machines' goroutines parked (its armed run and its unarmed
// twin), so the pass is split to keep every child's memory near the CLI
// sweep's own.
const sweepChunk = 8

// sweepRunChild is the sweep half of one traced repetition, run in a child
// process: sweep.Run as the CLI calls it, under the root span sweep.run,
// with one sweep.seed span per seed from OnProgress pickup to finish,
// sweep.merge from the last finish to Run's return, and render.report.
func sweepRunChild(seed uint64, workers int) (*repResult, error) {
	tr := newTracer()
	cfg := sweepConfig(seed, sweepSeeds, workers, sweepVirtual)
	root := tr.begin(0, "sweep.run")
	pickup := make(map[uint64]time.Time, sweepSeeds)
	var lastFinish time.Time
	// sweep serializes OnProgress calls, so the map needs no lock.
	cfg.OnProgress = func(p sweep.Progress) {
		now := time.Now()
		if !p.Finished {
			pickup[p.Seed] = now
			return
		}
		tr.add(root, "sweep.seed", pickup[p.Seed], now)
		lastFinish = now
	}
	res, err := sweep.Run(cfg)
	if err != nil {
		return nil, err
	}
	tr.add(root, "sweep.merge", lastFinish, time.Now())
	var out []byte
	tr.timed(root, "render.report", func() { out, err = renderSweep(res) })
	if err != nil {
		return nil, err
	}
	tr.end(root)

	spans := tr.snapshot()
	t := newSpanTree(spans)
	var seedMs []float64
	for _, d := range t.durations(root, "sweep.seed") {
		seedMs = append(seedMs, ms(d))
	}
	rootS := t.get(root).dur().Seconds()
	values := map[string]float64{
		"sweep.seed_ms_p50": median(seedMs),
		"sweep.seed_ms_max": maxOf(seedMs),
		"sweep.busy_ratio":  sum(seedMs) / 1e3 / (rootS * float64(workers)),
		"sweep.merge_ms":    ms(t.total(root, "sweep.merge")),
		"render.report_ms":  ms(t.total(root, "render.report")),
		"root":              rootS,
		"run.records":       float64(sweepRecords(res)),
	}
	return &repResult{Origin: tr.origin, Spans: spans, Values: values, Stdout: out}, nil
}

// sweepPlainChild is the untraced twin of sweepRunChild: sweep.Run as the
// CLI calls it, with no progress callback, and the report, timed whole.
// Its card counts must equal the ones the traced layer pass reports.
func sweepPlainChild(seed uint64, workers int) (*repResult, error) {
	start := time.Now()
	res, err := sweep.Run(sweepConfig(seed, sweepSeeds, workers, sweepVirtual))
	if err != nil {
		return nil, err
	}
	out, err := renderSweep(res)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	counts := make(map[string]float64)
	for _, r := range res.PerSeed {
		counts["card.segments"] += float64(r.Segments)
		counts["card.dropped"] += float64(r.Dropped)
	}
	return &repResult{Values: map[string]float64{"root": wall.Seconds()}, Counts: counts, Stdout: out}, nil
}

// sweepLayersChild is part of the layer pass of one traced repetition, run
// in a child process: seeds first..first+sweepChunk-1, one machine at a
// time, each seed's setup.*, capture and analyze (AnalyzeLean) spans under
// the root span sweep.layers, so each layer's time is its own; the decode
// passes and unarmed twins are roots of their own. Its values are sums
// over its seeds.
func sweepLayersChild(first uint64) (*repResult, error) {
	o := newOutcome()
	tr := newTracer()
	cfg := sweepConfig(first, sweepChunk, 1, sweepVirtual)
	sc, _ := workload.FindScenario("proday")
	v := make(map[string]float64)
	counts := make(map[string]float64)
	layers := tr.begin(0, "sweep.layers")
	for i, seed := range cfg.Seeds {
		run, err := runMachine(tr, layers, seed, sc, cfg.Params, cfg.Profile, true)
		if err != nil {
			return nil, err
		}
		var a *analyze.Analysis
		a0 := mallocs()
		tr.timed(layers, "analyze", func() { a = run.s.AnalyzeLean() })
		v["analyze.allocs"] += float64(mallocs() - a0)
		v["capture.allocs"] += float64(run.captureAllocs)
		v["setup.allocs"] += float64(run.setupAllocs)
		v["records"] += float64(a.Stats.Records)
		failuresOf(o, run, a.Stats)
		counts["sim.virtual_ms"] += float64(run.virtual) / float64(sim.Millisecond)
		counts["kernel.ticks"] += float64(run.ticks)
		counts["card.strobes"] += float64(run.strobes)
		counts["card.segments"] += float64(run.segments)
		counts["card.dropped"] += float64(run.dropped)
		counts["analyze.events"] += float64(len(a.Events))
		counts["analyze.items"] += float64(len(a.Items))
		counts["analyze.corrupt"] += float64(a.Stats.CorruptRecords)
		counts["analyze.repaired"] += float64(a.Stats.RepairedTimestamps)
		if i == 0 {
			// A forced collection scans every parked machine goroutine, so
			// the retained size is taken once, on the first seed.
			held := liveHeapMB()
			runtime.KeepAlive(a)
			v["analyze.retained_mb"] = held - liveHeapMB()
		}
		v["decoded"] += float64(decodePass(tr, 0, run))
		unarmed, err := runMachine(tr, 0, seed, sc, cfg.Params, cfg.Profile, false)
		if err != nil {
			return nil, err
		}
		sameCounts(o, fmt.Sprintf("sweep seed %d", seed), run, unarmed)
	}
	tr.end(layers)

	spans := tr.snapshot()
	t := newSpanTree(spans)
	for _, s := range spans {
		switch {
		case s.Parent == 0 && s.Name == "decode":
			v["decode.s"] += s.dur().Seconds()
		case s.Parent == 0 && s.Name == "capture.unarmed":
			v["capture.unarmed_s"] += s.dur().Seconds()
		}
	}
	v["capture.s"] = t.total(layers, "capture").Seconds()
	v["analyze.s"] = t.total(layers, "analyze").Seconds()
	return &repResult{Origin: tr.origin, Spans: spans, Values: v, Counts: counts,
		Fails: o.fails.snapshot(), Problems: o.problems}, nil
}

// tracedSweep makes the traced repetitions — each one sweep-run child and
// a layer-pass child per chunk of seeds — checks each against the CLI's
// output, and fills the per-layer metrics.
func (e *env) tracedSweep(o *outcome, cs *cliSeries, budget time.Duration) error {
	calls := []childCall{{childSweepRun, e.seed}}
	for first := 0; first < sweepSeeds; first += sweepChunk {
		calls = append(calls, childCall{childSweepLayers, e.seed + uint64(first)})
	}
	reps, plains, err := e.tracedReps(o, "sweep", budget, calls, []childCall{{childSweepPlain, e.seed}})
	if err != nil {
		return err
	}
	for _, r := range plains {
		if !bytes.Equal(r.Stdout, cs.stdout) {
			o.problem("sweep: untraced in-process sweep renders different bytes than the CLI")
		}
	}
	chunks := float64(sweepSeeds / sweepChunk)
	for _, r := range reps {
		if !bytes.Equal(r.Stdout, cs.stdout) {
			o.problem("sweep: traced in-process sweep renders different bytes than the CLI")
		}
		v := r.Values
		if v["records"] != v["run.records"] {
			o.problem("sweep: the layer pass decoded %v records, sweep.Run %v", v["records"], v["run.records"])
		}
		recs := v["records"]
		v["capture.ns_per_record"] = v["capture.s"] * 1e9 / recs
		v["capture.allocs_per_record"] = v["capture.allocs"] / recs
		v["card.s"] = v["capture.s"] - v["capture.unarmed_s"]
		v["analyze.ns_per_record"] = v["analyze.s"] * 1e9 / recs
		v["analyze.allocs_per_record"] = v["analyze.allocs"] / recs
		v["analyze.retained_mb"] /= chunks
		v["decode.ns_per_record"] = v["decode.s"] * 1e9 / v["decoded"]
		v["reconstruct.ns_per_record"] = (v["analyze.s"] - v["decode.s"]) * 1e9 / recs
		v["setup.allocs"] /= sweepSeeds
	}
	layerMedians(o, reps)

	// Set-up is reported per machine: the median over every seed's span.
	t := newSpanTree(o.spans)
	for _, name := range []string{"setup.machine", "setup.scenario", "setup.session"} {
		var per []float64
		for _, s := range t.spans {
			if s.Parent == 0 && s.Name == "sweep.layers" {
				for _, d := range t.durations(s.ID, name) {
					per = append(per, ms(d))
				}
			}
		}
		o.metrics[name+"_ms"] = median(per)
	}
	o.metrics["req_p99_ms"] = percentile(cs.wall, 99) * 1e3
	traceOverhead(o, "sweep.run", reps, plains)
	return nil
}
