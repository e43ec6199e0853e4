package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"kprof/internal/sim"
)

// Before/after comparison — the workflow the Profiler exists for:
// "quantitative comparison may guide design and implementation improvements
// as performance bottlenecks are highlighted in the kernel, and accurate
// before and after measurements may be made to test the success of such
// changes."
//
// Because two runs rarely cover identical wall time, the comparison is made
// in *net share of run time* and *per-call* terms, which are rate-free.

// Delta is one function's before/after movement.
type Delta struct {
	Name string

	BeforeShare, AfterShare     float64  // net time / run time
	BeforePerCall, AfterPerCall sim.Time // avg net per call
	BeforeCalls, AfterCalls     int

	// Added and Removed mark a function present in only one run: Added
	// means it appears only in the after run, Removed only in the before
	// run. The zero columns on the missing side mean "not instrumented
	// there", not "measured at zero".
	Added, Removed bool
}

// ShareChange is the movement in net share (negative = improvement for a
// function you were trying to shrink).
func (d Delta) ShareChange() float64 { return d.AfterShare - d.BeforeShare }

// Comparison is the full before/after report.
type Comparison struct {
	Deltas []Delta

	BeforeIdle, AfterIdle float64
}

// Compare builds a before/after comparison of two analyses.
func Compare(before, after *Analysis) *Comparison {
	names := map[string]bool{}
	for _, s := range before.Functions() {
		if !s.CtxSwitch {
			names[s.Name] = true
		}
	}
	for _, s := range after.Functions() {
		if !s.CtxSwitch {
			names[s.Name] = true
		}
	}
	c := &Comparison{}
	if e := before.Elapsed(); e > 0 {
		c.BeforeIdle = float64(before.Idle) / float64(e)
	}
	if e := after.Elapsed(); e > 0 {
		c.AfterIdle = float64(after.Idle) / float64(e)
	}
	share := func(a *Analysis, name string) (float64, sim.Time, int, bool) {
		s, ok := a.Fn(name)
		if !ok {
			return 0, 0, 0, false
		}
		if a.RunTime() <= 0 {
			return 0, 0, 0, true
		}
		return float64(s.Net) / float64(a.RunTime()), s.Avg(), s.Calls, true
	}
	for name := range names {
		var d Delta
		var inBefore, inAfter bool
		d.Name = name
		d.BeforeShare, d.BeforePerCall, d.BeforeCalls, inBefore = share(before, name)
		d.AfterShare, d.AfterPerCall, d.AfterCalls, inAfter = share(after, name)
		d.Added = inAfter && !inBefore
		d.Removed = inBefore && !inAfter
		c.Deltas = append(c.Deltas, d)
	}
	sort.Slice(c.Deltas, func(i, j int) bool {
		ai := abs64(c.Deltas[i].ShareChange())
		aj := abs64(c.Deltas[j].ShareChange())
		if ai != aj {
			return ai > aj
		}
		return c.Deltas[i].Name < c.Deltas[j].Name
	})
	return c
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Write renders the biggest movers. Rows with no movement at all (both
// shares and both call counts unchanged) are dropped before the top cut,
// so a short report is all movers; functions present in only one run
// render as "+new" / "gone" rather than a misleading 0.00%.
func (c *Comparison) Write(w io.Writer, top int) error {
	ew := &ErrWriter{W: w}
	fmt.Fprintf(ew, "idle: %5.2f%% -> %5.2f%%\n", 100*c.BeforeIdle, 100*c.AfterIdle)
	fmt.Fprintf(ew, "%-20s %9s %9s %8s %10s %10s\n",
		"function", "before%", "after%", "change", "us/call", "->us/call")
	deltas := make([]Delta, 0, len(c.Deltas))
	for _, d := range c.Deltas {
		still := !d.Added && !d.Removed &&
			d.BeforeShare == d.AfterShare && d.BeforeCalls == d.AfterCalls
		if !still {
			deltas = append(deltas, d)
		}
	}
	if top > 0 && len(deltas) > top {
		deltas = deltas[:top]
	}
	for _, d := range deltas {
		switch {
		case d.Added:
			fmt.Fprintf(ew, "%-20s %9s %8.2f%% %8s %10s %10d\n",
				d.Name, "+new", 100*d.AfterShare, "+new", "-",
				d.AfterPerCall.Micros())
		case d.Removed:
			fmt.Fprintf(ew, "%-20s %8.2f%% %9s %8s %10d %10s\n",
				d.Name, 100*d.BeforeShare, "gone", "gone",
				d.BeforePerCall.Micros(), "-")
		default:
			fmt.Fprintf(ew, "%-20s %8.2f%% %8.2f%% %+7.2f%% %10d %10d\n",
				d.Name, 100*d.BeforeShare, 100*d.AfterShare, 100*d.ShareChange(),
				d.BeforePerCall.Micros(), d.AfterPerCall.Micros())
		}
	}
	return ew.Err
}

// String renders the top 20 movers.
func (c *Comparison) String() string {
	var b strings.Builder
	_ = c.Write(&b, 20)
	return b.String()
}
