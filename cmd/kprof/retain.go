package main

import (
	"kprof/internal/analyze"
	"kprof/internal/core"
	"kprof/internal/export"
	"kprof/internal/hw"
	"kprof/internal/tagfile"
)

// retention is what a single profiled run keeps, decided once from the
// outputs its command line asks for. What no output reads is never built:
// a run that prints statistics and writes a pprof profile streams its
// records through the lean reconstructor and folds the profile as each
// invocation tree closes, with no event list, trace timeline or retained
// tree behind it.
type retention struct {
	// trace keeps the trace timeline and its invocation trees
	// (Session.Analyze): the trace, hist, timeline and callgraph reports,
	// the -trace export and the -http live /pprof and /trace.json
	// endpoints walk them.
	trace bool
	// records keeps a drained run's raw records host-side for -save;
	// without them (and without the trace) a -drain run decodes on the
	// background goroutine (core.DrainConfig.Recycle).
	records bool
	// pprof folds the -pprof profile during reconstruction; a run that
	// keeps its trace marshals the profile from the trace instead.
	pprof bool
}

// retain decides what a single run keeps from the outputs requested: the
// -report name and the -pprof, -trace, -http and -save arguments.
func retain(report, pprofPath, tracePath, httpAddr, savePath string) retention {
	r := retention{records: savePath != ""}
	switch report {
	case "trace", "hist", "timeline", "callgraph":
		r.trace = true
	}
	r.trace = r.trace || tracePath != "" || httpAddr != ""
	r.pprof = pprofPath != "" && !r.trace
	return r
}

// profiled is one finished single run.
type profiled struct {
	s *core.Session
	a *analyze.Analysis
	// fold is the pprof profile folded during reconstruction; nil when
	// the run kept its trace or wrote no profile.
	fold *export.PprofFold
}

// profile instruments m under cfg, arms the card, runs the workload and
// analyzes the capture, keeping only what r says. status, when non-nil,
// observes the capture.
func (r retention) profile(m *core.Machine, cfg core.ProfileConfig, status *export.StatusServer, run func() error) (profiled, error) {
	cfg.Drain.Recycle = cfg.Mode == core.CaptureContinuous && !r.trace && !r.records
	s, err := core.NewSession(m, cfg)
	if err != nil {
		return profiled{}, err
	}
	if status != nil {
		s.SetProgress(status.OnSessionProgress)
	}
	p := profiled{s: s}
	if r.pprof {
		p.fold = export.NewPprofFold()
		s.SetOnRoot(p.fold.Root)
	}
	s.Arm()
	if err := run(); err != nil {
		return profiled{}, err
	}
	s.Disarm()
	if r.trace {
		p.a = s.Analyze()
	} else {
		p.a = s.AnalyzeLean()
	}
	return p, nil
}

// reconstruct analyzes a saved capture — from arbitrary hardware in
// arbitrary health, so through the hardened decoder — keeping only what r
// says.
func (r retention) reconstruct(c hw.Capture, tags *tagfile.File) (*analyze.Analysis, *export.PprofFold) {
	opts := analyze.ReconstructOptions{Repair: analyze.DefaultRepair()}
	var fold *export.PprofFold
	if !r.trace {
		opts.DiscardEvents, opts.DiscardTrace = true, true
		if r.pprof {
			fold = export.NewPprofFold()
			opts.OnRoot = fold.Root
		}
	}
	return analyze.ReconstructCapture(c, tags, opts), fold
}
