package export

import (
	"strings"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/faults"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// refStack is one reference sample: a root-first stack's folded values.
type refStack struct {
	stack     string
	calls, ns int64
}

// referenceFold is the obvious, slow fold MarshalPprof must agree with:
// walk every top-level invocation tree, key each complete invocation by
// its root-first ";"-joined name stack, and sum calls and clamped net
// nanoseconds per key, in the order each key is first completed.
func referenceFold(a *analyze.Analysis) []refStack {
	var out []refStack
	ix := map[string]int{}
	var walk func(prefix string, n *analyze.Node)
	walk = func(prefix string, n *analyze.Node) {
		stack := n.Name
		if prefix != "" {
			stack = prefix + ";" + n.Name
		}
		if n.Complete {
			ns := int64(n.Net())
			if ns < 0 {
				ns = 0
			}
			i, ok := ix[stack]
			if !ok {
				i = len(out)
				ix[stack] = i
				out = append(out, refStack{stack: stack})
			}
			out[i].calls++
			out[i].ns += ns
		}
		for _, c := range n.Children {
			walk(stack, c)
		}
	}
	for _, it := range a.Items {
		if it.Kind == analyze.TraceExit && it.Node != nil && it.Depth == 0 {
			walk("", it.Node)
		}
	}
	return out
}

// decodedFold reads MarshalPprof's samples back as root-first stacks.
func decodedFold(t *testing.T, a *analyze.Analysis) []refStack {
	t.Helper()
	p := parsePprof(t, MarshalPprof(a, PprofOptions{}))
	out := make([]refStack, len(p.samples))
	for i, locs := range p.samples {
		names := make([]string, len(locs))
		for j, loc := range locs {
			names[len(locs)-1-j] = p.name(loc)
		}
		if len(p.values[i]) != 2 {
			t.Fatalf("sample %d carries %d values, want 2", i, len(p.values[i]))
		}
		out[i] = refStack{stack: strings.Join(names, ";"), calls: p.values[i][0], ns: p.values[i][1]}
	}
	return out
}

// frameCounts counts the invocations with unknowable timing, and those
// whose process was switched out while they were open and later resumed.
func frameCounts(a *analyze.Analysis) (incomplete, adopted int) {
	for _, it := range a.Items {
		if it.Kind != analyze.TraceEnter || it.Node == nil {
			continue
		}
		if !it.Node.Complete {
			incomplete++
		}
		if it.Node.Elapsed() < it.Node.End-it.Node.Start {
			adopted++
		}
	}
	return incomplete, adopted
}

// prodaySession profiles a short proday run under prof.
func prodaySession(t *testing.T, seed uint64, prof core.ProfileConfig) *core.Session {
	t.Helper()
	sc, ok := workload.FindScenario("proday")
	if !ok {
		t.Fatal("proday scenario not registered")
	}
	p := workload.Params{Duration: 300 * sim.Millisecond, Conns: 100, Rate: 300}
	m := core.NewMachine(kernel.Config{Seed: seed})
	if err := sc.Setup(m, p); err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(m, prof)
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	if _, err := sc.Run(m, p); err != nil {
		t.Fatal(err)
	}
	s.Disarm()
	return s
}

// lossySegments re-slices a one-shot capture into fixed-size drained
// segments and cuts a hole out of every third boundary, accounted as
// dropped strobes — the shape of a drain that fell behind the card.
func lossySegments(c hw.Capture, size, hole int) []hw.Capture {
	var segs []hw.Capture
	for i, n := 0, 0; i < len(c.Records); n++ {
		end := min(i+size, len(c.Records))
		seg := hw.Capture{Records: c.Records[i:end], ClockHz: c.ClockHz, TimerBits: c.TimerBits}
		i = end
		if n%3 == 2 && i < len(c.Records) {
			skip := min(hole, len(c.Records)-i)
			seg.Dropped = uint64(skip)
			i += skip
		}
		segs = append(segs, seg)
	}
	return segs
}

// MarshalPprof's folded samples must equal the reference fold stack for
// stack, value for value and in the same order, on captures that exercise
// what the fold must get right: frames force-closed at lossy drain
// boundaries, corruption repaired by the hardened decoder, and stacks
// adopted across context switches.
func TestPprofFoldMatchesReference(t *testing.T) {
	repair := analyze.ReconstructOptions{Repair: analyze.DefaultRepair()}
	cases := []struct {
		name string
		a    func(t *testing.T) *analyze.Analysis
	}{
		{"lossy-segments", func(t *testing.T) *analyze.Analysis {
			s := prodaySession(t, 5, core.ProfileConfig{Depth: 1 << 17})
			segs := lossySegments(s.Capture(), 1500, 40)
			return analyze.Stitch(segs, s.Tags, repair)
		}},
		{"faulted", func(t *testing.T) *analyze.Analysis {
			s := prodaySession(t, 3, core.ProfileConfig{Faults: &faults.Config{Seed: 1, Rate: 0.02}})
			a := s.Analyze()
			if a.Stats.CorruptRecords == 0 {
				t.Fatal("faulted capture decoded without corruption")
			}
			return a
		}},
		{"adoption-heavy", func(t *testing.T) *analyze.Analysis {
			s := prodaySession(t, 42, core.ProfileConfig{Mode: core.CaptureContinuous, Depth: 2048})
			return s.Analyze()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a(t)
			incomplete, adopted := frameCounts(a)
			if incomplete == 0 {
				t.Fatal("input has no incomplete frames")
			}
			if adopted < 100 {
				t.Fatalf("input adopts only %d frames across context switches", adopted)
			}
			want, got := referenceFold(a), decodedFold(t, a)
			if len(got) != len(want) {
				t.Fatalf("%d samples, reference folds %d stacks", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample %d: got %+v, reference %+v", i, got[i], want[i])
				}
			}
		})
	}
}
