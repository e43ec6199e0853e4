package analyze

import (
	"testing"

	"kprof/internal/hw"
	"kprof/internal/sim"
)

// pushAll streams a capture through a repairing decoder and collects the
// emitted events.
func pushAll(t *testing.T, c hw.Capture, repair RepairConfig) ([]Event, DecodeStats) {
	t.Helper()
	d := NewRepairingDecoder(c.ClockConfig(), mustTags(t), repair)
	var events []Event
	emit := func(ev Event) { events = append(events, ev) }
	for _, r := range c.Records {
		d.Push(r, emit)
	}
	d.Flush(emit)
	return events, d.Stats()
}

// Decoder.PushBatch must emit exactly the events record-at-a-time Push
// does, with the same stats, wherever the bank boundaries fall: banks of
// one or a few records leave a suspect stamp pending across the boundary,
// so the batch scan drops to the repair path and must resume cleanly.
func TestDecoderPushBatchMatchesPush(t *testing.T) {
	for _, c := range []hw.Capture{pseudoCapture(5, 1500), pseudoCapture(9, 3000)} {
		for _, repair := range []RepairConfig{{}, DefaultRepair()} {
			want, wantStats := pushAll(t, c, repair)
			if repair.Enabled && wantStats.RepairedTimestamps == 0 {
				t.Fatal("capture never exercised the repair path")
			}
			for _, bank := range []int{1, 7, 64, len(c.Records)} {
				d := NewRepairingDecoder(c.ClockConfig(), mustTags(t), repair)
				var got []Event
				emit := func(ev Event) { got = append(got, ev) }
				d.PushBatch(nil, emit) // an empty bank before the first record
				for i := 0; i < len(c.Records); i += bank {
					d.PushBatch(c.Records[i:min(i+bank, len(c.Records))], emit)
				}
				d.Flush(emit)
				if len(got) != len(want) {
					t.Fatalf("repair=%v bank %d: PushBatch emitted %d events, Push %d",
						repair.Enabled, bank, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("repair=%v bank %d: event %d: PushBatch %+v, Push %+v",
							repair.Enabled, bank, i, got[i], want[i])
					}
				}
				if gotStats := d.Stats(); gotStats != wantStats {
					t.Fatalf("repair=%v bank %d: stats %+v, want %+v", repair.Enabled, bank, gotStats, wantStats)
				}
			}
		}
	}
}

// On a clean stream the repairing Push path and the historical Next path
// must produce identical events — repair is a no-op when nothing is broken.
func TestRepairCleanStreamMatchesNext(t *testing.T) {
	c := capOf(
		[2]uint32{500, 10}, [2]uint32{502, 20}, [2]uint32{503, 45},
		[2]uint32{600, 50}, [2]uint32{601, 90}, [2]uint32{501, 120},
		// A genuine gap above the suspect threshold, chained by its
		// successor: arbitration accepts it untouched.
		[2]uint32{500, 120 + 6000}, [2]uint32{501, 130 + 6000},
		// A timer wrap traversed by a dense stream (small deltas across
		// the rollover itself): still clean, still must match. The leap
		// up to the wrap neighborhood is chain-accepted like the gap
		// above.
		[2]uint32{503, hw.TimerMask - 50},
		[2]uint32{500, hw.TimerMask - 5}, [2]uint32{501, 30},
	)
	want, wantStats := Decode(c, mustTags(t))
	got, gotStats := pushAll(t, c, DefaultRepair())
	if len(got) != len(want) {
		t.Fatalf("repair emitted %d events, Next %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: repair %+v, Next %+v", i, got[i], want[i])
		}
	}
	if gotStats.CorruptRecords != 0 || gotStats.RepairedTimestamps != 0 || gotStats.Resyncs != 0 {
		t.Fatalf("clean stream reported corruption: %+v", gotStats)
	}
	if wantStats.Records != gotStats.Records {
		t.Fatalf("record counts differ: %d vs %d", wantStats.Records, gotStats.Records)
	}
}

// A single glitched stamp between two mutually consistent neighbours is
// repaired by interpolation: the timeline never jumps, and the record is
// counted as corrupt + repaired.
func TestRepairGlitchedStamp(t *testing.T) {
	c := capOf(
		[2]uint32{500, 100},
		[2]uint32{502, 0x800000 | 110}, // high bit flipped: reads as a ~8.4 s jump
		[2]uint32{503, 120},
		[2]uint32{501, 130},
	)
	events, stats := pushAll(t, c, DefaultRepair())
	if len(events) != 4 {
		t.Fatalf("emitted %d events, want 4", len(events))
	}
	// The glitched record lands between its neighbours, not 8.4 s away.
	if events[1].Time <= events[0].Time || events[1].Time >= events[2].Time {
		t.Fatalf("repaired time %v not between %v and %v", events[1].Time, events[0].Time, events[2].Time)
	}
	if events[3].Time != events[0].Time+30*sim.Microsecond {
		t.Fatalf("timeline perturbed: last event at %v, want %v", events[3].Time, events[0].Time+30*sim.Microsecond)
	}
	if stats.CorruptRecords != 1 || stats.RepairedTimestamps != 1 || stats.Resyncs != 0 {
		t.Fatalf("stats %+v, want 1 corrupt, 1 repaired, 0 resyncs", stats)
	}
	// The unhardened decoder, by contrast, teleports.
	raw, _ := Decode(c, mustTags(t))
	if raw[1].Time < sim.Second {
		t.Fatalf("expected the unrepaired decode to jump, got %v", raw[1].Time)
	}
}

// A genuine long gap — successor agrees with the suspect — decodes exactly
// as without repair and is not counted corrupt.
func TestRepairAcceptsGenuineJump(t *testing.T) {
	c := capOf(
		[2]uint32{500, 100},
		[2]uint32{501, 100 + 9_000_000}, // 9 s later: implausible alone...
		[2]uint32{502, 100 + 9_000_050}, // ...but its successor chains onto it
		[2]uint32{503, 100 + 9_000_060},
	)
	want, _ := Decode(c, mustTags(t))
	got, stats := pushAll(t, c, DefaultRepair())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: repair %+v, Next %+v", i, got[i], want[i])
		}
	}
	if stats.CorruptRecords != 0 {
		t.Fatalf("genuine jump miscounted as corrupt: %+v", stats)
	}
}

// Consecutive unresolvable stamps trigger a bounded resync: the decoder
// rebases rather than zero-advancing forever.
func TestRepairBoundedResync(t *testing.T) {
	recs := capOf(
		[2]uint32{500, 100},
		// Four mutually inconsistent far-away stamps: each is at least
		// half a wrap from the trusted timebase (stamp 100) AND from its
		// predecessor, so no arbitration ever succeeds — until the
		// fourth forces the bounded resync.
		[2]uint32{502, 9_000_000},
		[2]uint32{503, 8_500_000},
		[2]uint32{501, 8_400_000},
		[2]uint32{500, 8_390_000},
		// After the resync the timeline rebases on the newest stamp and
		// continues normally.
		[2]uint32{501, 8_390_010},
	)
	events, stats := pushAll(t, recs, DefaultRepair())
	if len(events) != 6 {
		t.Fatalf("emitted %d events, want 6", len(events))
	}
	if stats.Resyncs != 1 {
		t.Fatalf("stats %+v, want exactly 1 resync", stats)
	}
	if stats.CorruptRecords != 3 || stats.RepairedTimestamps != 3 {
		t.Fatalf("stats %+v, want the 3 unresolvable stamps zero-advanced", stats)
	}
	// Post-resync delta decodes normally: 10 µs after the rebase record.
	if d := events[5].Time - events[4].Time; d != 10*sim.Microsecond {
		t.Fatalf("post-resync delta %v, want 10µs", d)
	}
	// Time never went backwards.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("time regressed at event %d: %v < %v", i, events[i].Time, events[i-1].Time)
		}
	}
}

// A small upward stamp corruption slips under the suspect threshold and is
// accepted as a plausible forward jump — but when the following good
// records reveal that the timebase overshot (they sit slightly behind it),
// the decoder rebases backward instead of reading them as a near-full
// timer wrap. The residual error stays bounded by the flip size; without
// this arm the timeline would gain a whole 2^24 µs wrap.
func TestRepairBackwardRebaseAfterOvershoot(t *testing.T) {
	c := capOf(
		[2]uint32{500, 100},
		[2]uint32{502, 110 + 2048}, // flipped bit 11: reads as a plausible +2 ms jump
		[2]uint32{503, 120},
		[2]uint32{501, 130},
	)
	events, stats := pushAll(t, c, DefaultRepair())
	if len(events) != 4 {
		t.Fatalf("emitted %d events, want 4", len(events))
	}
	// Bounded damage: the capture ends a couple of ms late, not 16.7 s.
	if events[3].Time > 10*sim.Millisecond {
		t.Fatalf("timebase overshoot compounded: capture ends at %v", events[3].Time)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("time regressed at event %d: %v < %v", i, events[i].Time, events[i-1].Time)
		}
	}
	if stats.CorruptRecords != 1 || stats.RepairedTimestamps != 1 || stats.Resyncs != 0 {
		t.Fatalf("stats %+v, want 1 corrupt / 1 repaired / 0 resyncs", stats)
	}
}

// A suspect with no successor (end of stream) is zero-advanced by Flush,
// never allowed to yank the capture's end forward.
func TestRepairFlushZeroAdvances(t *testing.T) {
	c := capOf(
		[2]uint32{500, 100},
		[2]uint32{501, 110},
		[2]uint32{502, 12_000_000}, // trailing glitch, no arbiter
	)
	events, stats := pushAll(t, c, DefaultRepair())
	if len(events) != 3 {
		t.Fatalf("emitted %d events, want 3", len(events))
	}
	if events[2].Time != events[1].Time {
		t.Fatalf("trailing suspect advanced the timeline to %v", events[2].Time)
	}
	if stats.RepairedTimestamps != 1 || stats.CorruptRecords != 1 {
		t.Fatalf("stats %+v, want the trailing record repaired", stats)
	}
}

// With repair disabled, Push behaves exactly like Next even on corrupt
// streams (the historical decode, preserved for the unhardened paths).
func TestPushRepairDisabledMatchesNext(t *testing.T) {
	c := capOf(
		[2]uint32{500, 100},
		[2]uint32{502, 0x800000 | 110},
		[2]uint32{503, 120},
	)
	want, _ := Decode(c, mustTags(t))
	got, stats := pushAll(t, c, RepairConfig{})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: Push %+v, Next %+v", i, got[i], want[i])
		}
	}
	if stats.RepairedTimestamps != 0 || stats.Resyncs != 0 {
		t.Fatalf("disabled repair still repaired: %+v", stats)
	}
}

// An unresolvable tag counts the record corrupt exactly once, even when its
// stamp was also repaired.
func TestCorruptCountedOncePerRecord(t *testing.T) {
	c := capOf(
		[2]uint32{500, 100},
		[2]uint32{9999, 0x800000 | 110}, // unknown tag AND glitched stamp
		[2]uint32{503, 120},
	)
	_, stats := pushAll(t, c, DefaultRepair())
	if stats.CorruptRecords != 1 {
		t.Fatalf("double-counted a doubly-damaged record: %+v", stats)
	}
	if stats.UnknownTags != 1 || stats.RepairedTimestamps != 1 {
		t.Fatalf("stats %+v, want 1 unknown tag and 1 repaired stamp", stats)
	}
}

// The streaming Reconstructor surfaces the decoder's corruption accounting
// through DecodeStats and per-segment Corrupt counts.
func TestReconstructorCorruptAccounting(t *testing.T) {
	tags := mustTags(t)
	rc := NewReconstructor(hw.Config{}, tags, ReconstructOptions{Repair: DefaultRepair()})
	push := func(tag uint16, us uint32) { rc.Push(hw.Record{Tag: tag, Stamp: us}) }
	push(500, 10)
	push(501, 0x800000|20) // glitched
	push(502, 30)
	rc.EndSegment(0, false)
	push(503, 40)
	push(501, 50)
	rc.EndSegment(0, false)
	a := rc.Finish(false, 0)
	if a.Stats.CorruptRecords != 1 || a.Stats.RepairedTimestamps != 1 {
		t.Fatalf("stats %+v, want 1 corrupt / 1 repaired", a.Stats)
	}
	if len(a.Segments) != 2 {
		t.Fatalf("%d segments, want 2", len(a.Segments))
	}
	if a.Segments[0].Corrupt != 1 || a.Segments[1].Corrupt != 0 {
		t.Fatalf("per-segment corrupt %d/%d, want 1/0", a.Segments[0].Corrupt, a.Segments[1].Corrupt)
	}
}
