package export

import (
	"bytes"
	"strings"
	"testing"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/faults"
	"kprof/internal/hw"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/tagfile"
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

// decodedFold reads an encoded profile's samples back as root-first stacks.
func decodedFold(t *testing.T, raw []byte) []refStack {
	t.Helper()
	p := parsePprof(t, raw)
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
func prodaySession(t testing.TB, seed uint64, prof core.ProfileConfig) *core.Session {
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
			want, got := referenceFold(a), decodedFold(t, MarshalPprof(a, PprofOptions{}))
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

// spliceCount counts the top-level invocations a retained analysis nests a
// second time: roots closed on the tentative stack of an unresolved
// context switch that adopt later spliced under the resumed frame. A
// retained analysis never recycles a node, so identity is exact.
func spliceCount(a *analyze.Analysis) int {
	roots := map[*analyze.Node]bool{}
	for _, it := range a.Items {
		if it.Kind == analyze.TraceExit && it.Node != nil && it.Depth == 0 {
			roots[it.Node] = true
		}
	}
	n := 0
	var walk func(*analyze.Node)
	walk = func(nd *analyze.Node) {
		for _, c := range nd.Children {
			if roots[c] {
				n++
			}
			walk(c)
		}
	}
	for r := range roots {
		walk(r)
	}
	return n
}

// depthZeroExits counts the trace's top-level exits: the roots MarshalPprof
// walks.
func depthZeroExits(a *analyze.Analysis) int {
	n := 0
	for _, it := range a.Items {
		if it.Kind == analyze.TraceExit && it.Node != nil && it.Depth == 0 {
			n++
		}
	}
	return n
}

// streamFold reconstructs segs on the lean path with a PprofFold as the
// root hook and reports the fold, the lean analysis and the hook's call
// count.
func streamFold(segs []hw.Capture, tags *tagfile.File) (*PprofFold, *analyze.Analysis, int) {
	fold := NewPprofFold()
	calls := 0
	a := analyze.Stitch(segs, tags, analyze.ReconstructOptions{
		DiscardEvents: true,
		DiscardTrace:  true,
		Repair:        analyze.DefaultRepair(),
		OnRoot: func(n *analyze.Node) {
			calls++
			fold.Root(n)
		},
	})
	return fold, a, calls
}

// drainedSegments lists a continuous session's drained segments as the
// captures Stitch takes.
func drainedSegments(s *core.Session) []hw.Capture {
	var segs []hw.Capture
	for _, seg := range s.Segments() {
		segs = append(segs, seg.Capture)
	}
	return segs
}

// withResumeCalls inserts a zero-length splx call after every context
// switch-in record: the shape of the paper's Figure 4, where a resumed
// process runs a balanced call before the orphan exit that identifies it.
// Those calls close as top-level frames on the tentative stack and are
// spliced under the resumed frame once it is adopted; the simulated
// kernel's own resumes never produce them.
func withResumeCalls(t testing.TB, segs []hw.Capture, tags *tagfile.File) []hw.Capture {
	t.Helper()
	sw, ok1 := tags.Lookup("swtch")
	splx, ok2 := tags.Lookup("splx")
	if !ok1 || !ok2 {
		t.Fatal("swtch or splx not in the tag file")
	}
	out := make([]hw.Capture, len(segs))
	for i, seg := range segs {
		recs := make([]hw.Record, 0, len(seg.Records))
		for _, r := range seg.Records {
			recs = append(recs, r)
			if r.Tag == sw.ExitTag() {
				recs = append(recs, hw.Record{Tag: splx.Tag, Stamp: r.Stamp}, hw.Record{Tag: splx.ExitTag(), Stamp: r.Stamp})
			}
		}
		out[i] = seg
		out[i].Records = recs
	}
	return out
}

// The pprof profile folded as each invocation tree closes, with no trace
// retained, must equal the reference fold over a retained analysis of the
// same records, and MarshalPprof's bytes exactly — on a clean drain, a
// faulted one, and a lossy one whose card fills between polls. Each is
// folded as captured and again with calls inserted at every resume
// (withResumeCalls), which must exercise the tentative-root splice: the
// one place a streamed tree outlives its own fold.
func TestPprofStreamedFoldMatchesReference(t *testing.T) {
	drain := func(hw int) core.ProfileConfig {
		return core.ProfileConfig{Mode: core.CaptureContinuous, Depth: 2048, Drain: core.DrainConfig{HighWater: hw}}
	}
	cases := []struct {
		name  string
		seed  uint64
		prof  core.ProfileConfig
		check func(t *testing.T, a *analyze.Analysis)
	}{
		{"clean", 42, drain(0), func(t *testing.T, a *analyze.Analysis) {
			if a.Stats.Dropped != 0 || a.Stats.CorruptRecords != 0 {
				t.Fatalf("clean drain lost %d strobes, %d corrupt", a.Stats.Dropped, a.Stats.CorruptRecords)
			}
		}},
		{"faulted", 3, func() core.ProfileConfig {
			p := drain(0)
			p.Faults = &faults.Config{Seed: 1, Rate: 0.02}
			return p
		}(), func(t *testing.T, a *analyze.Analysis) {
			if a.Stats.CorruptRecords == 0 {
				t.Fatal("faulted capture decoded without corruption")
			}
		}},
		{"lossy", 5, core.ProfileConfig{Mode: core.CaptureContinuous, Depth: 64,
			Drain: core.DrainConfig{HighWater: 8, Interval: 2 * sim.Millisecond}}, func(t *testing.T, a *analyze.Analysis) {
			if a.Stats.Dropped == 0 || forceClosed(a) == 0 {
				t.Fatalf("lossy drain dropped %d strobes and force-closed %d frames", a.Stats.Dropped, forceClosed(a))
			}
		}},
	}
	for _, tc := range cases {
		s := prodaySession(t, tc.seed, tc.prof)
		for _, resume := range []bool{false, true} {
			name := tc.name
			segs := drainedSegments(s)
			if resume {
				name += "+resume-calls"
				segs = withResumeCalls(t, segs, s.Tags)
			}
			t.Run(name, func(t *testing.T) {
				foldMatchesReference(t, segs, s.Tags, tc.check, resume)
			})
		}
	}
}

// foldMatchesReference checks one capture for
// TestPprofStreamedFoldMatchesReference; splice demands that the capture
// exercise the tentative-root splice.
func foldMatchesReference(t *testing.T, segs []hw.Capture, tags *tagfile.File, check func(*testing.T, *analyze.Analysis), splice bool) {
	full := analyze.Stitch(segs, tags, analyze.ReconstructOptions{Repair: analyze.DefaultRepair()})
	check(t, full)
	if n := spliceCount(full); splice && n == 0 {
		t.Fatal("no tentative root was spliced under a resumed frame")
	}
	fold, lean, calls := streamFold(segs, tags)
	if want := depthZeroExits(full); calls != want {
		t.Fatalf("root hook called %d times, trace has %d top-level exits", calls, want)
	}
	if len(lean.Items) != 0 || len(lean.Events) != 0 {
		t.Fatalf("lean analysis retained %d items and %d events", len(lean.Items), len(lean.Events))
	}
	raw := fold.Marshal(lean, PprofOptions{})
	want, got := referenceFold(full), decodedFold(t, raw)
	if len(got) != len(want) {
		t.Fatalf("%d samples, reference folds %d stacks", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: got %+v, reference %+v", i, got[i], want[i])
		}
	}
	if !bytes.Equal(raw, MarshalPprof(full, PprofOptions{})) {
		t.Fatal("streamed fold's bytes differ from MarshalPprof over the retained trace")
	}
}

// forceClosed sums the frames force-closed at lossy segment boundaries.
func forceClosed(a *analyze.Analysis) int {
	n := 0
	for _, seg := range a.Segments {
		n += seg.ForceClosed
	}
	return n
}
