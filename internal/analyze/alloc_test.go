package analyze

import (
	"testing"

	"kprof/internal/hw"
)

// The lean streaming path (a sweep worker: events and trace discarded)
// must reach a steady state where pushing records allocates nothing —
// nodes come from the pool, stacks recycle, and the function table stops
// growing. The ceiling is exact: zero allocations per pass.
func TestSteadyStatePushZeroAlloc(t *testing.T) {
	tags := mustTags(t)
	c := pseudoCapture(3, 4096)
	rc := NewReconstructor(c.ClockConfig(), tags, ReconstructOptions{
		DiscardEvents: true,
		DiscardTrace:  true,
		Repair:        DefaultRepair(),
	})
	pass := func() {
		for _, r := range c.Records {
			rc.Push(r)
		}
	}
	// Warm every pool and table to its limit cycle.
	for i := 0; i < 3; i++ {
		pass()
	}
	if avg := testing.AllocsPerRun(10, pass); avg != 0 {
		t.Errorf("steady-state Push allocates: %.2f allocs per 4096-record pass", avg)
	}
}

// The retaining path (Session.Analyze, Stitch with nothing discarded)
// sizes its tables once: the event list and the trace timeline are
// reserved at the capture's record count, so neither regrows, and nodes
// come from slabs. What still allocates per record is bounded: the
// parent-to-child and inline-mark appends of the invocation trees.
func TestStitchFullAllocBound(t *testing.T) {
	const records, segSize = 1 << 15, 2048
	tags := mustTags(t)
	c := pseudoCapture(11, records)
	var segs []hw.Capture
	for i := 0; i < records; i += segSize {
		segs = append(segs, hw.Capture{Records: c.Records[i : i+segSize]})
	}
	opts := ReconstructOptions{Repair: DefaultRepair()}
	var a *Analysis
	allocs := testing.AllocsPerRun(5, func() { a = Stitch(segs, tags, opts) })
	if a.Stats.Records != records {
		t.Fatalf("stitched %d records, want %d", a.Stats.Records, records)
	}
	if len(a.Events) != records || cap(a.Events) != records {
		t.Errorf("Events len %d cap %d, want both %d", len(a.Events), cap(a.Events), records)
	}
	if len(a.Items) > cap(a.Items) || cap(a.Items) != records {
		t.Errorf("Items len %d cap %d, want cap %d", len(a.Items), cap(a.Items), records)
	}
	const bound = 0.35
	if perRecord := allocs / records; perRecord > bound {
		t.Errorf("full stitch allocates %.3f per record, bound %.2f", perRecord, bound)
	}
}
