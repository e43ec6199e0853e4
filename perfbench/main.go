// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed wall-clock budget, checks that the program's outputs are
// correct, and prints every end-to-end metric (or, with -trace 1, every
// per-layer metric from a separately traced run) by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"run_s": {"value": 0.41, "unit": "s"}, ...}}
//
// Run it through perfbench/run.sh from the root of the tree, which builds
// the kprof CLI and this command from source first:
//
//	bash perfbench/run.sh --workload proday --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --list
//
// The proday and sweep workloads time the kprof binary built from the
// tree, because the CLI decides which capture and analysis path a user
// gets; fleet and serve call fleet.RunSources and export.StatusServer in
// process. The workload inputs derive from -seed alone.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// workloadDef is one benchmark input set, with the reason it was chosen.
type workloadDef struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

var workloads = []workloadDef{
	{name: "proday", why: "the CLI's single profiled run on the heaviest scenario: capture, full analysis and rendering in one long machine", run: runProday},
	{name: "sweep", why: "many short proday seeds through the CLI sweep: per-machine set-up and lean analysis on a worker pool", run: runSweep},
	{name: "fleet", why: "recorded fleet streams replayed through fleet.RunSources: decode, reconstruct and staging, no simulation", run: runFleet},
	{name: "serve", why: "status-page, JSON and profile clients each polling once a second, and one SSE subscriber, against a StatusServer fed a recorded feed", run: runServe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workloadDef{}, false
}

// env is what a workload run needs from the command line.
type env struct {
	seed    uint64
	budget  time.Duration // the measured wall-clock budget
	trace   bool
	kprof   string // the CLI binary built from the tree under test
	self    string // this benchmark's binary, which runs the child tasks
	work    string // scratch directory for CLI outputs and the trace file
	workers int    // GOMAXPROCS and every pool size
	prov    provenance
}

// outcome is a finished workload run.
type outcome struct {
	metrics  map[string]float64
	fails    *failures
	problems []string // failed correctness checks
	spans    []span   // the traced run's spans (trace mode only)
	notes    []string // human-readable context lines, printed before the result
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), fails: newFailures()}
}

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// failures counts each failure kind against its attempts: dropped strobes
// against strobes, corrupt records against records, drain errors against
// drains, nonzero exits against commands, HTTP errors and requests over
// the latency limit against requests, evicted SSE subscribers against
// subscribers.
type failures struct {
	mu    sync.Mutex
	kinds map[string][2]int // kind -> {attempted, failed}
}

func newFailures() *failures { return &failures{kinds: make(map[string][2]int)} }

func (f *failures) count(kind string, attempted, failed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.kinds[kind]
	f.kinds[kind] = [2]int{c[0] + attempted, c[1] + failed}
}

func (f *failures) totals() (attempted, failed int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.kinds {
		attempted += c[0]
		failed += c[1]
	}
	return attempted, failed
}

func (f *failures) snapshot() map[string][2]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][2]int, len(f.kinds))
	for k, v := range f.kinds {
		out[k] = v
	}
	return out
}

func (f *failures) ratio() float64 {
	a, n := f.totals()
	return ratio(float64(n), float64(a))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metric set the mode reports — every end-to-end
// metric with tracing off, every per-layer metric with it on — and fails
// if the workload left any of them out or produced a non-finite value. A
// run that failed a correctness check may have stopped before measuring:
// its result says correct: false and carries whatever was measured.
func buildResult(o *outcome, trace bool) (result, error) {
	want := endToEnd
	if trace {
		want = perLayer
	}
	r := result{Correct: len(o.problems) == 0, Metrics: make(map[string]metricValue, len(want))}
	r.Attempted, r.Failed = o.fails.totals()
	if !r.Correct {
		r.Attempted = max(r.Attempted, 1)
		for _, m := range want {
			if v, ok := o.metrics[m.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
				r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
		}
		return r, nil
	}
	if r.Attempted < 1 {
		return r, errors.New("the run attempted no operations")
	}
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is not finite: %v", m.Name, v)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return r, nil
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload to run: proday, sweep, fleet or serve")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measured wall-clock seconds")
		traceOn = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		list    = flag.Bool("list", false, "print the metric catalogue and exit")
		kprof   = flag.String("kprof", "", "kprof binary built from the tree under test")
		work    = flag.String("work", ".bench_build/perfbench-work", "scratch directory for outputs and the trace file")
		child   = flag.String("child", "", "internal: run one child task (a repetition, a recording or the serve host) and write its result to -out")
		in      = flag.String("in", "", "internal: the recording the serve host child reads")
		out     = flag.String("out", "", "internal: where a -child task writes its result")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: perfbench -workload NAME -seed N -seconds S -trace 0|1\n\nworkloads:\n%s\nflags:\n", describeWorkloads())
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		if err := writeCatalogue(os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	if *child != "" {
		runtime.GOMAXPROCS(runtime.NumCPU())
		if err := runChildTask(*child, *seed, runtime.NumCPU(), *in, *out); err != nil {
			fail(err)
		}
		return
	}
	wl, ok := findWorkload(*wlName)
	if !ok {
		fail(fmt.Errorf("unknown -workload %q", *wlName))
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fail(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	if *kprof == "" {
		fail(errors.New("-kprof names no binary; run through perfbench/run.sh"))
	}
	if _, err := os.Stat(*kprof); err != nil {
		fail(fmt.Errorf("kprof binary: %w", err))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fail(err)
	}
	self, err := os.Executable()
	if err != nil {
		fail(err)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	e := &env{
		self:    self,
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		trace:   *traceOn == 1,
		kprof:   *kprof,
		work:    *work,
		workers: nproc,
	}
	e.prov = hostProvenance(wl.name, e.seed, *seconds, e.trace)

	o, res, err := runWorkload(wl, e)
	if err != nil {
		fail(fmt.Errorf("%s: %w", wl.name, err))
	}
	printResult(os.Stdout, e, o, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload and builds its result. A traced run also
// checks span integrity, adds the bookkeeping metrics, and writes its
// spans to the work directory.
func runWorkload(wl workloadDef, e *env) (*outcome, result, error) {
	o, err := wl.run(e)
	if err != nil {
		return nil, result{}, err
	}
	if e.trace {
		o.metrics["failed_ratio"] = o.fails.ratio()
		o.metrics["trace.spans"] = float64(len(o.spans))
		if err := newSpanTree(o.spans).check(); err != nil {
			o.problem("span integrity: %v", err)
		}
		path := filepath.Join(e.work, fmt.Sprintf("trace-%s-seed%d.json", wl.name, e.seed))
		if err := writeTraceFile(path, traceFile{Workload: wl.name, Provenance: e.prov,
			Failures: o.fails.snapshot(), Spans: o.spans}); err != nil {
			return nil, result{}, err
		}
		o.note("spans written to %s", path)
	}
	res, err := buildResult(o, e.trace)
	return o, res, err
}

// printResult prints the human-readable lines — notes, failed checks,
// failure accounts, every metric with its unit, the provenance stamp —
// then the result line last.
func printResult(w io.Writer, e *env, o *outcome, res result) {
	for _, n := range o.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	kinds := o.fails.snapshot()
	ks := make([]string, 0, len(kinds))
	for k := range kinds {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		fmt.Fprintf(w, "failures %-8s %d of %d\n", k, kinds[k][1], kinds[k][0])
	}
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	for _, m := range want {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "%-28s %16.6f %s\n", m.Name, v.Value, m.Unit)
		}
	}
	stamp, _ := json.Marshal(e.prov)
	fmt.Fprintf(w, "provenance: %s\n", stamp)
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
