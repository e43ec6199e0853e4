package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSpansNestAndSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(0, "root", at(0), at(100))
	tr.add(root, "a", at(10), at(40))
	b := tr.add(root, "b", at(30), at(60)) // overlaps a: a parallel worker
	tr.add(b, "c", at(35), at(45))
	tr.add(0, "other", at(200), at(210))
	st := newSpanTree(tr.snapshot())
	if err := st.check(); err != nil {
		t.Fatal(err)
	}
	// root's children cover [10,60] once, however much they overlap.
	if got, want := st.self(root), 50*time.Millisecond; got != want {
		t.Errorf("root self time %v, want %v", got, want)
	}
	if got, want := st.self(b), 20*time.Millisecond; got != want {
		t.Errorf("b self time %v, want %v", got, want)
	}
	if got, want := st.total(root, "c"), 10*time.Millisecond; got != want {
		t.Errorf("total c below root %v, want %v", got, want)
	}
}

func TestSpanCheckRejectsBrokenTrees(t *testing.T) {
	cases := map[string]func(tr *tracer){
		"child outside parent": func(tr *tracer) {
			p := tr.add(0, "p", tr.origin, tr.origin.Add(time.Millisecond))
			tr.add(p, "c", tr.origin, tr.origin.Add(2*time.Millisecond))
		},
		"unclosed": func(tr *tracer) { tr.begin(0, "open") },
		"parent opened later": func(tr *tracer) {
			tr.add(2, "c", tr.origin, tr.origin)
			tr.add(0, "p", tr.origin, tr.origin)
		},
	}
	for name, build := range cases {
		tr := newTracer()
		build(tr)
		if err := newSpanTree(tr.snapshot()).check(); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.timed(tr.begin(0, "x"), "y", func() { ran = true })
	if !ran || tr.add(0, "z", time.Now(), time.Now()) != 0 {
		t.Fatal("a nil tracer must run the work and record nothing")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median %v", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if p := percentile(xs, 99); p != 5 {
		t.Errorf("p99 of 5 samples %v, want the largest", p)
	}
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if p := percentile(hundred, 99); p != 99 {
		t.Errorf("p99 of 1..100 = %v", p)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the root of the tree.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json carries the catalogue's names, units, directions and
// bounds, and the workloads with their reasons.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), catalogue %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the catalogue %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %s %s %s %v", i, m, c.Name, c.Unit, c.Better, c.Bound)
		}
	}
	for i, m := range b.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %s %s %s", i, m, c.Name, c.Unit, c.Better)
		}
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is catalogued twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
}

// A short run of every workload, untraced and traced, passes the
// correctness gate and emits every metric of its mode, finite, with its
// unit.
func TestShortRunOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	kprof, self := filepath.Join(dir, "kprof"), filepath.Join(dir, "perfbench")
	for bin, pkg := range map[string]string{kprof: "kprof/cmd/kprof", self: "."} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	// The workloads read the golden files relative to the root of the tree.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			e := &env{seed: 3, budget: time.Second, trace: trace, kprof: kprof, self: self, work: dir, workers: runtime.GOMAXPROCS(0)}
			o, res, err := runWorkload(wl, e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct {
				t.Fatalf("%s trace=%v: incorrect: %v", wl.name, trace, o.problems)
			}
			if res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", wl.name, trace, res.Failed, res.Attempted, o.fails.snapshot())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", wl.name, trace, m.Name, v)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", wl.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// A failed correctness check prints its reason and a result line that
// says correct: false, whether the CLI prints the wrong bytes or exits
// nonzero, and the run then exits nonzero.
func TestFailedGatePrintsIncorrectResult(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	cases := []struct{ name, script, want string }{
		{"wrong-output", "#!/bin/sh\necho wrong\n", "INCORRECT: golden proday: CLI output differs"},
		{"nonzero-exit", "#!/bin/sh\necho broken >&2\nexit 3\n", "INCORRECT: golden proday: kprof exited 3: broken"},
	}
	for _, c := range cases {
		kprof := filepath.Join(dir, c.name)
		if err := os.WriteFile(kprof, []byte(c.script), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			e := &env{seed: 1, budget: time.Millisecond, trace: trace, kprof: kprof, work: dir, workers: 1}
			o, res, err := runWorkload(workloads[0], e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", c.name, trace, err)
			}
			var out bytes.Buffer
			printResult(&out, e, o, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s trace=%v: last line is not a result: %v\n%s", c.name, trace, err, out.String())
			}
			if r.Correct || r.Attempted < 1 {
				t.Errorf("%s trace=%v: result %+v, want correct false with attempts", c.name, trace, r)
			}
			if !strings.Contains(out.String(), c.want) {
				t.Errorf("%s trace=%v: output lacks %q:\n%s", c.name, trace, c.want, out.String())
			}
		}
	}
}
