package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"kprof/internal/core"
	"kprof/internal/export"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// Drain tuning flags only mean something under -drain; without it they
// must be rejected by name, not silently run one-shot.
func TestCheckDrainFlags(t *testing.T) {
	for _, tc := range []struct {
		drain     bool
		highWater int
		interval  time.Duration
		want      string
	}{
		{false, 0, 0, ""},
		{true, 100, 2 * time.Millisecond, ""},
		{false, 100, 0, "-highwater 100 needs -drain"},
		{false, 0, 2 * time.Millisecond, "-draininterval 2ms needs -drain"},
	} {
		err := checkDrainFlags(tc.drain, tc.highWater, tc.interval)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("checkDrainFlags(%v, %d, %v) = %q, want %q", tc.drain, tc.highWater, tc.interval, got, tc.want)
		}
	}
}

// What a single run keeps follows from the outputs it asks for alone: the
// trace only for the reports and exports that walk it, the drained records
// only for -save.
func TestRetain(t *testing.T) {
	for _, tc := range []struct {
		report, pprof, trace, http, save string
		want                             retention
	}{
		{"summary", "", "", "", "", retention{}},
		{"summary", "p.pb.gz", "", "", "", retention{pprof: true}},
		{"groups", "p.pb.gz", "", "", "s.kprof", retention{records: true, pprof: true}},
		{"json", "", "", "", "", retention{}},
		{"trace", "p.pb.gz", "", "", "", retention{trace: true}},
		{"hist", "", "", "", "", retention{trace: true}},
		{"timeline", "", "", "", "", retention{trace: true}},
		{"callgraph", "", "", "", "", retention{trace: true}},
		{"summary", "p.pb.gz", "t.json", "", "", retention{trace: true}},
		{"summary", "p.pb.gz", "", ":6060", "", retention{trace: true}},
	} {
		if got := retain(tc.report, tc.pprof, tc.trace, tc.http, tc.save); got != tc.want {
			t.Errorf("retain(%q, %q, %q, %q, %q) = %+v, want %+v",
				tc.report, tc.pprof, tc.trace, tc.http, tc.save, got, tc.want)
		}
	}
}

// readGolden reads one of the repository's golden files.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// profileGolden runs a registered scenario through retention.profile the
// way the CLI's single-run path does.
func profileGolden(t *testing.T, keep retention, scenario string, seed uint64, p workload.Params, cfg core.ProfileConfig) profiled {
	t.Helper()
	sc, ok := workload.FindScenario(scenario)
	if !ok {
		t.Fatalf("scenario %q not registered", scenario)
	}
	m := core.NewMachine(kernel.Config{Seed: seed})
	if sc.Setup != nil {
		if err := sc.Setup(m, p); err != nil {
			t.Fatal(err)
		}
	}
	run, err := keep.profile(m, cfg, nil, func() error {
		_, err := sc.Run(m, p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// The CLI's lean paths reproduce the goldens the retaining path pins: a
// -drain -pprof run decodes in the background and folds its profile there,
// a one-shot -pprof run folds it on the lean in-place decode, and both
// match the goldens byte for byte.
func TestLeanFoldMatchesGoldens(t *testing.T) {
	keep := retain("summary", "p.pb.gz", "", "", "")

	t.Run("proday-drain-recycled", func(t *testing.T) {
		// The pinned configuration of the proday goldens.
		p := workload.Params{Duration: 600 * sim.Millisecond, Conns: 100, Rate: 300}
		run := profileGolden(t, keep, "proday", 42, p, core.ProfileConfig{Mode: core.CaptureContinuous, Depth: 2048})
		segs := run.s.Segments()
		if len(segs) == 0 || !segs[0].Recycled {
			t.Fatal("drained run did not decode in the background")
		}
		if len(run.a.Items) != 0 || len(run.a.Events) != 0 {
			t.Fatalf("lean analysis retained %d items and %d events", len(run.a.Items), len(run.a.Events))
		}
		if got, want := run.a.SegmentsString(), readGolden(t, "proday_drain_seed42.segments"); got != want {
			t.Fatal("segment table differs from proday_drain_seed42.segments")
		}
		if got, want := run.a.SummaryString(15), readGolden(t, "proday_drain_seed42.summary"); got != want {
			t.Fatal("summary differs from proday_drain_seed42.summary")
		}
		if got, want := string(run.fold.Marshal(run.a, export.PprofOptions{})), readGolden(t, "proday_drain_seed42.pprof"); got != want {
			t.Fatal("folded profile differs from proday_drain_seed42.pprof")
		}
	})
	t.Run("netrecv-one-shot", func(t *testing.T) {
		run := profileGolden(t, keep, "netrecv", 42, workload.Params{Duration: 60 * sim.Millisecond}, core.ProfileConfig{})
		if len(run.a.Items) != 0 {
			t.Fatalf("lean analysis retained %d items", len(run.a.Items))
		}
		if got, want := run.a.SummaryString(15), readGolden(t, "netrecv_seed42.summary"); got != want {
			t.Fatal("summary differs from netrecv_seed42.summary")
		}
		if got, want := string(run.fold.Marshal(run.a, export.PprofOptions{})), readGolden(t, "netrecv_seed42.pprof"); got != want {
			t.Fatal("folded profile differs from netrecv_seed42.pprof")
		}
	})
}
