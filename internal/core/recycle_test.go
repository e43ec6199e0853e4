package core

import (
	"strings"
	"testing"

	"kprof/internal/kernel"
	"kprof/internal/sim"
)

// runDrained profiles the drain-equivalence workload under continuous
// capture, keeping every drained record or (recycle) decoding in the
// background and reusing the readout buffers.
func runDrained(t *testing.T, recycle bool) *Session {
	t.Helper()
	m := NewMachine(kernel.Config{Seed: 11})
	s, err := NewSession(m, ProfileConfig{
		Mode:  CaptureContinuous,
		Depth: 256,
		Drain: DrainConfig{
			HighWater: 64,
			Interval:  20 * sim.Microsecond,
			Recycle:   recycle,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Arm()
	mallocStorm(m, 300)
	m.K.Run(2 * sim.Second)
	s.Disarm()
	return s
}

// TestRecycleMatchesResident pins the recycling segment store to the
// record-retaining one's: the same drains with the same record counts,
// but only the counts and loss metadata stay host-side. (The analyses are
// compared byte for byte in TestPipelinedDecodeMatchesSerial.)
func TestRecycleMatchesResident(t *testing.T) {
	sKeep, sRec := runDrained(t, false), runDrained(t, true)
	keepSegs, recSegs := sKeep.Segments(), sRec.Segments()
	if len(keepSegs) != len(recSegs) {
		t.Fatalf("segment counts differ: resident %d, recycled %d", len(keepSegs), len(recSegs))
	}
	total := 0
	for i := range keepSegs {
		keep, rec := keepSegs[i], recSegs[i]
		if keep.Records != keep.Capture.Len() {
			t.Fatalf("resident segment %d count %d != %d records held", i, keep.Records, keep.Capture.Len())
		}
		if keep.Records != rec.Records || keep.DrainedAt != rec.DrainedAt ||
			keep.Capture.Dropped != rec.Capture.Dropped {
			t.Fatalf("segment %d differs: resident %d records at %v (%d dropped), recycled %d at %v (%d dropped)",
				i, keep.Records, keep.DrainedAt, keep.Capture.Dropped, rec.Records, rec.DrainedAt, rec.Capture.Dropped)
		}
		if !rec.Recycled || rec.Capture.Records != nil {
			t.Fatalf("recycling session's segment %d still holds its record buffer", i)
		}
		total += rec.Records
	}
	if total == 0 {
		t.Fatal("no records drained")
	}
}

// TestRecycleContract pins the narrowed contract: a recycling session's
// records are gone, so re-decoding them must fail loudly, not return an
// empty analysis.
func TestRecycleContract(t *testing.T) {
	s := runDrained(t, true)
	if len(s.Segments()) < 2 {
		t.Fatalf("only %d segments drained", len(s.Segments()))
	}
	mustPanic := func(op string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s on recycled segments did not panic", op)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "Recycle") {
				t.Fatalf("%s panic does not explain the contract: %v", op, r)
			}
		}()
		fn()
	}
	mustPanic("Analyze", func() { s.Analyze() })

	// A re-arm extends the capture past what the background decode
	// covered: the lean path would have to re-decode the recycled
	// segments, so it must panic too rather than analyze nil record lists.
	s.Arm()
	mallocStorm(s.M, 50)
	s.M.K.Run(s.M.K.Now() + 500*sim.Millisecond)
	s.Disarm()
	mustPanic("AnalyzeLean", func() { s.AnalyzeLean() })
}
