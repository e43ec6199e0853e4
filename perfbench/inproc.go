package main

import (
	"fmt"

	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// machineRun is one simulated machine's set-up and capture, made through
// the public calls cmd/kprof and sweep.runSeed make, in their order, with
// a span at each layer boundary.
type machineRun struct {
	m    *core.Machine
	s    *core.Session
	line string // the scenario's one-line result

	setupAllocs   uint64
	captureAllocs uint64

	// Exact counts.
	virtual  sim.Time
	ticks    uint64
	strobes  uint64 // latched records plus dropped strobes
	segments int
	dropped  uint64
}

// runMachine builds a machine, runs the scenario's Setup, instruments a
// session and runs the scenario. An armed run captures with the card and
// drains through Disarm, as the CLI does; an unarmed run is the identical
// session never armed, so triggers fire and cost the same simulated time
// but nothing latches or drains. Set-up spans are named setup.* for an
// armed run and grouped under unarmed.setup otherwise, so the unarmed
// twin never counts toward the set-up metrics.
func runMachine(tr *tracer, parent int, seed uint64, sc workload.Scenario, p workload.Params, prof core.ProfileConfig, armed bool) (*machineRun, error) {
	r := &machineRun{}
	setupParent := parent
	unarmedSetup := 0
	if !armed {
		unarmedSetup = tr.begin(parent, "unarmed.setup")
		setupParent = unarmedSetup
	}
	a0 := mallocs()
	tr.timed(setupParent, "setup.machine", func() { r.m = core.NewMachine(kernel.Config{Seed: seed}) })
	var err error
	if sc.Setup != nil {
		tr.timed(setupParent, "setup.scenario", func() { err = sc.Setup(r.m, p) })
		if err != nil {
			return nil, fmt.Errorf("seed %d: setup: %w", seed, err)
		}
	}
	tr.timed(setupParent, "setup.session", func() { r.s, err = core.NewSession(r.m, prof) })
	if err != nil {
		return nil, fmt.Errorf("seed %d: session: %w", seed, err)
	}
	a1 := mallocs()
	tr.end(unarmedSetup)
	r.setupAllocs = a1 - a0

	name := "capture"
	if !armed {
		name = "capture.unarmed"
	}
	a1 = mallocs()
	tr.timed(parent, name, func() {
		if armed {
			r.s.Arm()
		}
		r.line, err = sc.Run(r.m, p)
		if armed && err == nil {
			r.s.Disarm()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("seed %d: run: %w", seed, err)
	}
	r.captureAllocs = mallocs() - a1

	r.virtual = r.m.K.Now()
	r.ticks = r.m.K.Stats.Ticks
	for _, seg := range r.s.Segments() {
		r.strobes += uint64(len(seg.Capture.Records)) + seg.Capture.Dropped
		r.dropped += seg.Capture.Dropped
	}
	r.strobes += uint64(r.s.Card.Stored()) + r.s.Card.Dropped
	r.dropped += r.s.Card.Dropped
	r.segments = len(r.s.Segments())
	return r, nil
}

// decodePass times analyze.Decoder.PushBatch alone over the run's drained
// segments with a no-op emit, in the span "decode", and returns the
// records decoded.
func decodePass(tr *tracer, parent int, r *machineRun) int {
	d := analyze.NewRepairingDecoder(r.s.Card.Config(), r.s.Tags, analyze.DefaultRepair())
	emit := func(analyze.Event) {}
	tr.timed(parent, "decode", func() {
		for _, seg := range r.s.Segments() {
			d.PushBatch(seg.Capture.Records, emit)
		}
		d.PushBatch(r.s.Card.Records(), emit)
		d.Flush(emit)
	})
	return d.Stats().Records
}

// sameCounts compares the exact counts an armed run and its unarmed twin
// must share: virtual end time and clock ticks.
func sameCounts(o *outcome, what string, armed, unarmed *machineRun) {
	if armed.virtual != unarmed.virtual || armed.ticks != unarmed.ticks {
		o.problem("%s: armed capture ended at %v after %d ticks, unarmed at %v after %d",
			what, armed.virtual, armed.ticks, unarmed.virtual, unarmed.ticks)
	}
}

// failuresOf accounts a capture's dropped strobes, drain errors and
// corrupt records.
func failuresOf(o *outcome, r *machineRun, st analyze.DecodeStats) {
	o.fails.count("strobe", int(r.strobes), int(r.dropped))
	o.fails.count("drain", r.segments, r.s.DrainErrs())
	o.fails.count("record", st.Records, st.CorruptRecords)
}
