package analyze

import (
	"fmt"
	"math"
	"testing"

	"kprof/internal/hw"
	"kprof/internal/sim"
)

// pseudoCapture builds a busy synthetic capture: nested calls, context
// switches, inline marks, unknown tags, and stamp gaps that wrap the
// 24-bit counter, driven by a deterministic PRNG.
func pseudoCapture(seed uint64, n int) hw.Capture {
	r := sim.NewRand(seed)
	var c hw.Capture
	stamp := uint32(r.Uint64())
	tags := []uint32{500, 501, 502, 503, 504, 505, 506, 507, 600, 601, 1002, 9999}
	for i := 0; i < n; i++ {
		stamp = (stamp + uint32(r.Intn(200_000))) & hw.TimerMask
		tag := tags[r.Intn(len(tags))]
		c.Records = append(c.Records, hw.Record{Tag: uint16(tag), Stamp: stamp})
	}
	c.Overflowed = true
	c.Dropped = 7
	return c
}

// adoptionShapes are hand-built captures pinning the reconstructor's
// cross-context decisions: the Figure 4 resume, FIFO adoption across two
// processes sleeping in the same function, and the malformed cases.
func adoptionShapes() []hw.Capture {
	return []hw.Capture{
		// Figure 4: tentative frames spliced into the adopted stack.
		capOf(
			[2]uint32{500, 0}, [2]uint32{502, 10}, [2]uint32{600, 20},
			[2]uint32{601, 60}, [2]uint32{504, 65}, [2]uint32{505, 75},
			[2]uint32{503, 90}, [2]uint32{501, 100},
		),
		// Two suspended processes in the same function: FIFO adoption.
		capOf(
			[2]uint32{500, 0}, [2]uint32{600, 10},
			[2]uint32{601, 20}, [2]uint32{500, 25}, [2]uint32{600, 35},
			[2]uint32{601, 50}, [2]uint32{501, 60},
			[2]uint32{600, 70}, [2]uint32{601, 80}, [2]uint32{501, 95},
		),
		// Unclosed tentative frames discarded at adoption; orphan exit with
		// no match anywhere; exit during idle.
		capOf(
			[2]uint32{500, 0}, [2]uint32{600, 5},
			[2]uint32{504, 10}, [2]uint32{505, 15}, // interrupt in idle
			[2]uint32{601, 20}, [2]uint32{502, 25}, // tentative b never closes
			[2]uint32{501, 40},                     // orphan a exit: adopts
			[2]uint32{507, 50},                     // exit with no frame: orphan
			[2]uint32{600, 60}, [2]uint32{505, 70}, // exit in idle, no frame
		),
	}
}

// requireIdentical fails unless the two analyses agree on every quantity the
// lean path retains — the accounting header, the capture-quality stats, the
// segment table, the full per-function statistics, and the rendered report
// byte for byte.
func requireIdentical(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	if got.Start != want.Start || got.End != want.End || got.Idle != want.Idle ||
		got.Switches != want.Switches || got.OrphanExits != want.OrphanExits ||
		got.Recovered != want.Recovered {
		t.Fatalf("%s: accounting differs:\n got Start=%v End=%v Idle=%v Sw=%d Orphan=%d Rec=%d\nwant Start=%v End=%v Idle=%v Sw=%d Orphan=%d Rec=%d",
			label, got.Start, got.End, got.Idle, got.Switches, got.OrphanExits, got.Recovered,
			want.Start, want.End, want.Idle, want.Switches, want.OrphanExits, want.Recovered)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v != %+v", label, got.Stats, want.Stats)
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("%s: %d segments, want %d", label, len(got.Segments), len(want.Segments))
	}
	for i := range got.Segments {
		if got.Segments[i] != want.Segments[i] {
			t.Fatalf("%s: segment %d %+v != %+v", label, i, got.Segments[i], want.Segments[i])
		}
	}
	gf, wf := got.Functions(), want.Functions()
	if len(gf) != len(wf) {
		t.Fatalf("%s: %d functions, want %d", label, len(gf), len(wf))
	}
	for i := range gf {
		if *gf[i] != *wf[i] {
			t.Fatalf("%s: fn %s: %+v != %+v", label, wf[i].Name, *gf[i], *wf[i])
		}
	}
	if g, w := got.SummaryString(0), want.SummaryString(0); g != w {
		t.Fatalf("%s: summary differs\n--- got ---\n%s--- want ---\n%s", label, g, w)
	}
}

// The streaming reconstructor must agree with the batch path on every
// retained quantity; with nothing discarded, on the trace as well. The
// lean batch push the drain loop and sweeps run must agree with the
// record-at-a-time stream too, with and without timestamp repair (the
// pseudo-random captures' wide stamp gaps keep the repair path busy).
func TestStreamingMatchesBatch(t *testing.T) {
	tags := mustTags(t)
	var inputs []hw.Capture
	for _, seed := range []uint64{1, 2, 7, 42, 77, 123} {
		inputs = append(inputs, pseudoCapture(seed, 3000))
	}
	inputs = append(inputs, adoptionShapes()...)
	for ci, c := range inputs {
		events, stats := Decode(c, tags)
		batch := Reconstruct(events, stats)
		for _, repair := range []RepairConfig{{}, DefaultRepair()} {
			label := fmt.Sprintf("capture %d repair=%v", ci, repair.Enabled)
			rc := NewReconstructor(c.ClockConfig(), tags, ReconstructOptions{Repair: repair})
			for _, r := range c.Records {
				rc.Push(r)
			}
			stream := rc.Finish(c.Overflowed, c.Dropped)

			lean := NewReconstructor(c.ClockConfig(), tags, ReconstructOptions{DiscardEvents: true, DiscardTrace: true, Repair: repair})
			lean.PushBatch(c.Records)
			requireIdentical(t, label+" lean PushBatch", lean.Finish(c.Overflowed, c.Dropped), stream)

			if repair.Enabled {
				continue // the batch decoder has no repair to compare against
			}
			if got, want := stream.SummaryString(0), batch.SummaryString(0); got != want {
				t.Fatalf("%s: streaming summary differs\n--- streaming ---\n%s--- batch ---\n%s", label, got, want)
			}
			if got, want := stream.TraceString(TraceOptions{}), batch.TraceString(TraceOptions{}); got != want {
				t.Fatalf("%s: streaming trace differs", label)
			}
			if stream.Stats != batch.Stats {
				t.Fatalf("%s: stats %+v != %+v", label, stream.Stats, batch.Stats)
			}
			if stream.Idle != batch.Idle || stream.Switches != batch.Switches ||
				stream.OrphanExits != batch.OrphanExits || stream.Recovered != batch.Recovered {
				t.Fatalf("%s: accounting differs", label)
			}
		}
	}
}

// Discarding events and trace must not change the statistics, and must
// actually discard.
func TestStreamingLeanDropsBulk(t *testing.T) {
	tags := mustTags(t)
	c := pseudoCapture(42, 2000)
	events, stats := Decode(c, tags)
	batch := Reconstruct(events, stats)

	rc := NewReconstructor(c.ClockConfig(), tags, ReconstructOptions{DiscardEvents: true, DiscardTrace: true})
	for _, r := range c.Records {
		rc.Push(r)
	}
	lean := rc.Finish(c.Overflowed, c.Dropped)

	if len(lean.Events) != 0 || len(lean.Items) != 0 {
		t.Fatalf("lean analysis retained %d events, %d items", len(lean.Events), len(lean.Items))
	}
	if got, want := lean.SummaryString(0), batch.SummaryString(0); got != want {
		t.Fatalf("lean summary differs\n--- lean ---\n%s--- batch ---\n%s", got, want)
	}
	if lean.Idle != batch.Idle || lean.Start != batch.Start || lean.End != batch.End {
		t.Fatal("lean accounting differs")
	}
}

func TestAccAddAndMerge(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var whole Acc
	for _, x := range xs {
		whole.Add(x)
	}
	var left, right Acc
	for _, x := range xs[:4] {
		left.Add(x)
	}
	for _, x := range xs[4:] {
		right.Add(x)
	}
	left.Merge(right)
	if left.N != whole.N || left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Fatalf("merge counts/extremes: %+v vs %+v", left, whole)
	}
	if math.Abs(left.Mean-whole.Mean) > 1e-12 || math.Abs(left.Std()-whole.Std()) > 1e-12 {
		t.Fatalf("merge moments: mean %v vs %v, std %v vs %v", left.Mean, whole.Mean, left.Std(), whole.Std())
	}
	// Sanity against the direct formulas.
	mean := 44.0 / 11
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	// Sample standard deviation: N−1 divisor (11 observations).
	if math.Abs(whole.Mean-mean) > 1e-12 || math.Abs(whole.Std()-math.Sqrt(ss/10)) > 1e-12 {
		t.Fatalf("wrong moments: %v, %v", whole.Mean, whole.Std())
	}
	// Merge into empty and merge of empty.
	var empty Acc
	empty.Merge(whole)
	if empty != whole {
		t.Fatal("merge into empty lost state")
	}
	whole.Merge(Acc{})
	if empty != whole {
		t.Fatal("merging an empty accumulator changed state")
	}
}

func TestAccCV(t *testing.T) {
	var a Acc
	for _, x := range []float64{10, 10, 10} {
		a.Add(x)
	}
	if a.CV() != 0 {
		t.Fatalf("constant series CV = %v", a.CV())
	}
	var z Acc
	z.Add(0)
	z.Add(0)
	if z.CV() != 0 {
		t.Fatalf("zero-mean CV = %v", z.CV())
	}
}
