package sweep

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"kprof/internal/analyze"
)

// DefaultStableCV is the coefficient-of-variation threshold under which a
// function's run-time share is considered reproduced stably across seeds.
const DefaultStableCV = 0.10

// FnAggregate is one function's statistics across all seeds of a sweep.
// Each accumulator's observations are per-seed scalars: a seed where the
// function never ran contributes nothing (see Seeds versus the sweep's
// seed count).
type FnAggregate struct {
	Name string
	// Seeds counts the seeds in which the function appeared.
	Seeds int

	Calls   analyze.Acc // per-seed call counts
	NetUS   analyze.Acc // per-seed net µs
	AvgUS   analyze.Acc // per-seed mean net µs per call
	PctReal analyze.Acc // per-seed % of elapsed
	PctNet  analyze.Acc // per-seed % of run time
}

// Stable reports whether the function's run-time share reproduces across
// seeds: it appeared in every seed and the spread of its % net share is
// within maxCV of its mean (DefaultStableCV when maxCV is 0). A sweep of
// fewer than two seeds has no cross-seed spread to judge, so nothing is
// stable — a single observation always has CV 0, which says nothing
// about reproducibility.
func (f *FnAggregate) Stable(totalSeeds int, maxCV float64) bool {
	if totalSeeds < 2 {
		return false
	}
	if maxCV <= 0 {
		maxCV = DefaultStableCV
	}
	return f.Seeds == totalSeeds && f.PctNet.CV() <= maxCV
}

// Aggregate is the cross-seed merge of a sweep. The observation unit is
// one SeedResult: a whole seed for a sweep, or one machine's contribution
// to one time window for a fleet run (internal/fleet), which reuses this
// type so fleet reports carry the same statistics vocabulary.
type Aggregate struct {
	Scenario string
	// Seeds counts observations folded in (per-seed for sweeps,
	// per-machine-window for fleet runs).
	Seeds int

	// Whole-run scalars, one observation per seed.
	ElapsedUS analyze.Acc
	RunUS     analyze.Acc
	IdlePct   analyze.Acc
	Records   analyze.Acc
	Switches  analyze.Acc

	// Fns is sorted by mean net time descending (ties by name).
	Fns    []*FnAggregate
	byName map[string]*FnAggregate
}

// Aggregator builds an Aggregate incrementally, one observation at a
// time, instead of folding a finished result slice at the end. The sweep
// engine feeds it per-seed results in seed order; the fleet ingest
// pipeline feeds it per-(machine, window) samples in machine order as
// each window closes. Observations fold in Add-call order and each
// observation's functions fold in sorted name order, so two Aggregators
// fed the same observations in the same order produce bit-identical
// statistics — whatever scheduling produced the observations.
type Aggregator struct {
	g *Aggregate
	// arena carves the per-function aggregates from one slab (append-only
	// at fixed capacity, falling back to individual allocations if a run
	// somehow exceeds the symbol-table hint).
	arena []FnAggregate
	names []string
}

// fnHint presizes for a full symbol table.
const fnHint = 160

// NewAggregator starts an empty aggregate for the named scenario (a fleet
// merging heterogeneous scenarios passes its own label).
func NewAggregator(scenario string) *Aggregator {
	return &Aggregator{
		g: &Aggregate{
			Scenario: scenario,
			Fns:      make([]*FnAggregate, 0, fnHint),
			byName:   make(map[string]*FnAggregate, fnHint),
		},
		arena: make([]FnAggregate, 0, fnHint),
		names: make([]string, 0, fnHint),
	}
}

// Add folds one observation in. The result's functions fold in sorted
// name order — map iteration order is random, and a fixed order keeps the
// float accumulation deterministic.
func (ag *Aggregator) Add(r SeedResult) {
	g := ag.g
	g.Seeds++
	g.ElapsedUS.Add(r.ElapsedUS)
	g.RunUS.Add(r.RunUS)
	g.IdlePct.Add(r.IdlePct)
	g.Records.Add(float64(r.Records))
	g.Switches.Add(float64(r.Switches))

	ag.names = ag.names[:0]
	for name := range r.Fns {
		ag.names = append(ag.names, name)
	}
	sort.Strings(ag.names)
	for _, name := range ag.names {
		s := r.Fns[name]
		f := g.byName[name]
		if f == nil {
			if len(ag.arena) < cap(ag.arena) {
				ag.arena = append(ag.arena, FnAggregate{Name: name})
				f = &ag.arena[len(ag.arena)-1]
			} else {
				f = &FnAggregate{Name: name}
			}
			g.byName[name] = f
			g.Fns = append(g.Fns, f)
		}
		f.Seeds++
		f.Calls.Add(float64(s.Calls))
		f.NetUS.Add(s.NetUS)
		f.AvgUS.Add(s.AvgUS)
		f.PctReal.Add(s.PctReal)
		f.PctNet.Add(s.PctNet)
	}
}

// Finish sorts the function table and returns the aggregate. The
// Aggregator must not be used afterwards.
func (ag *Aggregator) Finish() *Aggregate {
	sortFns(ag.g.Fns)
	return ag.g
}

// aggregate folds per-seed results in slice order — a fixed order, so the
// merged statistics are identical however the seeds were scheduled.
func aggregate(scenario string, results []SeedResult) *Aggregate {
	ag := NewAggregator(scenario)
	for _, r := range results {
		ag.Add(r)
	}
	return ag.Finish()
}

// Merge folds another aggregate into g using the exact parallel-variance
// update (analyze.Acc.Merge): g becomes the aggregate of both input
// observation sets. The other aggregate's functions fold in sorted name
// order and g's function table is re-sorted afterwards, so a chain of
// Merge calls in a fixed order — the fleet's windows closing in window
// order — renders bit-identically however the observations were produced.
// Merge-equals-serial holds to floating-point reassociation (~1e-9
// relative on the moments; counts and extremes are exact), which is why
// deterministic output always comes from fixing the fold order, never
// from re-grouping the folds.
func (g *Aggregate) Merge(o *Aggregate) {
	g.Seeds += o.Seeds
	g.ElapsedUS.Merge(o.ElapsedUS)
	g.RunUS.Merge(o.RunUS)
	g.IdlePct.Merge(o.IdlePct)
	g.Records.Merge(o.Records)
	g.Switches.Merge(o.Switches)

	if g.byName == nil {
		g.byName = make(map[string]*FnAggregate, fnHint)
	}
	names := make([]string, 0, len(o.Fns))
	for _, f := range o.Fns {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		of := o.byName[name]
		f := g.byName[name]
		if f == nil {
			f = &FnAggregate{Name: name}
			g.byName[name] = f
			g.Fns = append(g.Fns, f)
		}
		f.Seeds += of.Seeds
		f.Calls.Merge(of.Calls)
		f.NetUS.Merge(of.NetUS)
		f.AvgUS.Merge(of.AvgUS)
		f.PctReal.Merge(of.PctReal)
		f.PctNet.Merge(of.PctNet)
	}
	sortFns(g.Fns)
}

// sortFns orders the function table by mean net time descending, ties by
// name — the rendering order, re-established after every build or merge.
func sortFns(fns []*FnAggregate) {
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].NetUS.Mean != fns[j].NetUS.Mean {
			return fns[i].NetUS.Mean > fns[j].NetUS.Mean
		}
		return fns[i].Name < fns[j].Name
	})
}

// Fn looks one function's aggregate up by name.
func (g *Aggregate) Fn(name string) (*FnAggregate, bool) {
	f, ok := g.byName[name]
	return f, ok
}

// Write renders the aggregate table: the whole-run header, then one line
// per function in the style of the paper's summary, each column carrying
// mean ± stddev across seeds, with the % net coefficient of variation and
// a stability marker ('*' = appeared in every seed with CV within
// DefaultStableCV).
func (g *Aggregate) Write(w io.Writer, top int) error {
	ew := &analyze.ErrWriter{W: w}
	fmt.Fprintf(ew, "Sweep of %s across %d seeds\n", g.Scenario, g.Seeds)
	fmt.Fprintf(ew, "Elapsed us = %.0f ± %.0f  [%.0f, %.0f]\n",
		g.ElapsedUS.Mean, g.ElapsedUS.Std(), g.ElapsedUS.Min(), g.ElapsedUS.Max())
	fmt.Fprintf(ew, "Run us     = %.0f ± %.0f\n", g.RunUS.Mean, g.RunUS.Std())
	fmt.Fprintf(ew, "Idle %%     = %.2f ± %.2f\n", g.IdlePct.Mean, g.IdlePct.Std())
	fmt.Fprintf(ew, "Tags       = %.0f ± %.0f   context switches = %.0f ± %.0f\n",
		g.Records.Mean, g.Records.Std(), g.Switches.Mean, g.Switches.Std())
	fmt.Fprintln(ew, strings.Repeat("-", 78))
	fmt.Fprintf(ew, "%18s %16s %14s %7s %5s   %s\n",
		"net us (mean±sd)", "% net (mean±sd)", "calls (mean)", "CV", "seeds", "")
	fns := g.Fns
	if top > 0 && len(fns) > top {
		fns = fns[:top]
	}
	for _, f := range fns {
		marker := " "
		if f.Stable(g.Seeds, 0) {
			marker = "*"
		}
		fmt.Fprintf(ew, "%11.0f ±%5.0f %10.2f ±%5.2f %14.1f %7.3f %4d %s %s\n",
			f.NetUS.Mean, f.NetUS.Std(), f.PctNet.Mean, f.PctNet.Std(),
			f.Calls.Mean, f.PctNet.CV(), f.Seeds, marker, f.Name)
	}
	return ew.Err
}

// String renders the top 20 functions.
func (g *Aggregate) String() string {
	var b strings.Builder
	_ = g.Write(&b, 20)
	return b.String()
}
