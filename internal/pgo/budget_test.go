package pgo

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kprof/internal/core"
	"kprof/internal/instrument"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/sweep"
	"kprof/internal/workload"
)

// bruteForce enumerates every candidate subset and returns the best
// attainable attributed net time under the budget — the ground truth the
// optimizer must match on small instances.
func bruteForce(cands []Candidate, b Budget) int64 {
	trig := b.triggerNs()
	overCap := b.OverheadNs
	if overCap <= 0 {
		overCap = int64(1) << 62
	}
	maxPick := len(cands)
	if b.Tags > 0 && b.Tags/2 < maxPick {
		maxPick = b.Tags / 2
	}
	var best int64
	for mask := 0; mask < 1<<len(cands); mask++ {
		var net, over int64
		count := 0
		for i, c := range cands {
			if mask&(1<<i) == 0 {
				continue
			}
			net += c.NetNs
			over += c.Overhead(trig)
			count++
		}
		if count <= maxPick && over <= overCap && net > best {
			best = net
		}
	}
	return best
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	// Every instance at or below 12 functions must be solved exactly.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(13)
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{
				Name:  fmt.Sprintf("fn%02d", i),
				NetNs: rng.Int63n(1_000_000),
				Calls: rng.Int63n(500),
			}
			if rng.Intn(8) == 0 {
				cands[i].NetNs = 0 // zero-attribution functions exist
			}
		}
		b := Budget{}
		if rng.Intn(3) > 0 {
			b.Tags = 2 * rng.Intn(n+2)
		}
		if rng.Intn(3) > 0 {
			b.OverheadNs = rng.Int63n(200_000_000)
		}
		if rng.Intn(4) == 0 {
			b.TriggerNs = int64(100 + rng.Intn(400))
		}
		want := bruteForce(cands, b)
		plan := Optimize(cands, b)
		if plan.NetNs != want {
			t.Fatalf("trial %d: Optimize = %d, brute force = %d\ncands: %+v\nbudget: %+v",
				trial, plan.NetNs, want, cands, b)
		}
		// The plan must satisfy its own accounting and the budget.
		var net, over int64
		for _, c := range plan.Picks {
			net += c.NetNs
			over += c.Overhead(b.triggerNs())
		}
		if net != plan.NetNs || over != plan.OverheadNs {
			t.Fatalf("trial %d: plan books don't add up: %+v", trial, plan)
		}
		if b.Tags > 0 && plan.TagsUsed > b.Tags {
			t.Fatalf("trial %d: plan spends %d tags over budget %d", trial, plan.TagsUsed, b.Tags)
		}
		if b.OverheadNs > 0 && plan.OverheadNs > b.OverheadNs {
			t.Fatalf("trial %d: plan overhead %d over budget %d", trial, plan.OverheadNs, b.OverheadNs)
		}
	}
}

func TestOptimizeDeterministicUnderInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cands := make([]Candidate, 40)
	for i := range cands {
		cands[i] = Candidate{
			Name:   fmt.Sprintf("fn%02d", i),
			Module: fmt.Sprintf("mod%d", i%5),
			NetNs:  rng.Int63n(500_000),
			Calls:  rng.Int63n(300),
		}
	}
	b := Budget{Tags: 24, OverheadNs: 30_000_000}
	ref := Optimize(cands, b)
	for shuffle := 0; shuffle < 5; shuffle++ {
		shuffled := append([]Candidate(nil), cands...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := Optimize(shuffled, b)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("shuffle %d: plan differs:\nref: %+v\ngot: %+v", shuffle, ref, got)
		}
	}
	if len(ref.Picks) == 0 || ref.TagsUsed > 24 {
		t.Fatalf("plan = %+v", ref)
	}
}

func TestOptimizeEdgeCases(t *testing.T) {
	if p := Optimize(nil, Budget{}); len(p.Picks) != 0 || p.NetNs != 0 {
		t.Fatalf("empty input plan = %+v", p)
	}
	cands := []Candidate{
		{Name: "hot", NetNs: 100, Calls: 10},
		{Name: "cold", NetNs: 0, Calls: 10},
	}
	// Zero tag budget picks nothing.
	if p := Optimize(cands, Budget{Tags: 1}); len(p.Picks) != 0 {
		t.Fatalf("1-tag plan = %+v", p)
	}
	// Unlimited budget picks everything with attribution, never the
	// zero-net function.
	p := Optimize(cands, Budget{})
	if len(p.Picks) != 1 || p.Picks[0].Name != "hot" {
		t.Fatalf("unlimited plan = %+v", p)
	}
	// A candidate whose overhead alone busts the budget is not picked.
	p = Optimize(cands, Budget{OverheadNs: 100})
	if len(p.Picks) != 0 {
		t.Fatalf("tiny-overhead plan = %+v", p)
	}
	// Zero-overhead candidates are free under any overhead budget.
	free := []Candidate{{Name: "freebie", NetNs: 50, Calls: 0}}
	if p := Optimize(free, Budget{OverheadNs: 1}); len(p.Picks) != 1 {
		t.Fatalf("free plan = %+v", p)
	}
}

func TestPlanDrivesInstrumentation(t *testing.T) {
	// A plan from a real profile must convert into instrument.Options
	// that instrument exactly the chosen functions on a fresh kernel.
	base := profileNetrecv(t, 1)
	m := core.NewMachine(kernel.Config{Seed: 1})
	cands := CandidatesFromAnalysis(base.A, m.ModuleOf())
	if len(cands) < 10 {
		t.Fatalf("only %d candidates from profile", len(cands))
	}
	for _, c := range cands {
		if c.Name == "in_cksum" && c.Module != "in_cksum" {
			t.Fatalf("module labels missing: %+v", c)
		}
	}
	plan := Optimize(cands, Budget{Tags: 16})
	if len(plan.Picks) != 8 {
		t.Fatalf("16-tag plan picked %d functions", len(plan.Picks))
	}
	fresh := core.NewMachine(kernel.Config{Seed: 2})
	res, err := instrument.Instrument(fresh.K, plan.Options())
	if err != nil {
		t.Fatal(err)
	}
	if res.Functions() != len(plan.Picks) {
		t.Fatalf("instrumented %d functions, plan has %d", res.Functions(), len(plan.Picks))
	}
	got := res.InstrumentedNames()
	want := plan.Functions()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("instrumented %v, want %v", got, want)
	}
	out := &strings.Builder{}
	if err := plan.Write(out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "instrumentation plan: 8 functions (16 tags)") {
		t.Fatalf("plan render:\n%s", out.String())
	}
}

// planSink keeps BenchmarkOptimize's result live so the compiler cannot
// drop the measured call.
var planSink *Plan

// BenchmarkOptimize times the exact branch-and-bound search over a full
// card RAM's candidate set (netrecv, seed 42) with both the tag and the
// trigger-overhead constraint active, so the solver stays interactive as
// the kernel's function census grows.
func BenchmarkOptimize(b *testing.B) {
	m := core.NewMachine(kernel.Config{Seed: 42})
	s, err := core.NewSession(m, core.ProfileConfig{})
	if err != nil {
		b.Fatal(err)
	}
	s.Arm()
	if _, err := workload.NetReceive(m, 2*sim.Second); err != nil {
		b.Fatal(err)
	}
	s.Disarm()
	cands := CandidatesFromAnalysis(s.AnalyzeLean(), nil)
	budget := Budget{Tags: 16, OverheadNs: 2_000_000}
	if p := Optimize(cands, budget); len(p.Picks) == 0 {
		b.Fatalf("plan over %d candidates picked nothing", len(cands))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planSink = Optimize(cands, budget)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cands)), "ns/candidate")
}

func TestCandidatesFromAggregate(t *testing.T) {
	var fn sweep.FnAggregate
	fn.Name = "tcp_input"
	fn.NetUS.Add(1000)
	fn.NetUS.Add(3000)
	fn.Calls.Add(10)
	fn.Calls.Add(20)
	agg := &sweep.Aggregate{Fns: []*sweep.FnAggregate{&fn}}
	cands := CandidatesFromAggregate(agg)
	if len(cands) != 1 || cands[0].NetNs != 2_000_000 || cands[0].Calls != 15 {
		t.Fatalf("cands = %+v", cands)
	}
}
