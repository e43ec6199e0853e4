package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded at a layer boundary. Parent is the
// ID of the span that caused it, 0 for a root. Start and End are offsets
// from the tracer's origin; End is -1 while the span is open.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds spans in memory until the run ends. It is safe for
// concurrent use, and a nil *tracer records nothing, so traced and
// untraced runs share one code path.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a finished span from wall-clock instants taken elsewhere,
// such as a progress callback's pickup and finish events.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return id
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(parent int, name string, fn func()) {
	id := t.begin(parent, name)
	fn()
	t.end(id)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanTree indexes a span snapshot by parent for self-time and subtree
// queries.
type spanTree struct {
	spans    []span
	children map[int][]int
}

func newSpanTree(spans []span) *spanTree {
	tr := &spanTree{spans: spans, children: make(map[int][]int)}
	for _, s := range spans {
		tr.children[s.Parent] = append(tr.children[s.Parent], s.ID)
	}
	return tr
}

func (tr *spanTree) get(id int) span { return tr.spans[id-1] }

// self is the span's duration minus the part of its interval that its
// children cover. Children that overlap one another (parallel workers)
// count once.
func (tr *spanTree) self(id int) time.Duration {
	s := tr.get(id)
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range tr.children[id] {
		cs := tr.get(c)
		a, b := max(cs.Start, s.Start), min(cs.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return s.dur() - covered
}

// under visits every span in the subtree below root (root excluded).
func (tr *spanTree) under(root int, visit func(span)) {
	for _, c := range tr.children[root] {
		visit(tr.get(c))
		tr.under(c, visit)
	}
}

// total sums the durations of the spans named name below root.
func (tr *spanTree) total(root int, name string) time.Duration {
	var d time.Duration
	tr.under(root, func(s span) {
		if s.Name == name {
			d += s.dur()
		}
	})
	return d
}

// durations lists the durations of the spans named name below root.
func (tr *spanTree) durations(root int, name string) []time.Duration {
	var ds []time.Duration
	tr.under(root, func(s span) {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	})
	return ds
}

// check verifies the span integrity every traced run must hold: every
// span is closed, every parent exists and was opened first, every child
// lies inside its parent, and no self time is negative.
func (tr *spanTree) check() error {
	for _, s := range tr.spans {
		if s.End < 0 {
			return fmt.Errorf("span %d %q never ended", s.ID, s.Name)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			if s.Parent < 1 || s.Parent > len(tr.spans) || s.Parent >= s.ID {
				return fmt.Errorf("span %d %q has parent %d that was not opened before it", s.ID, s.Name, s.Parent)
			}
			p := tr.get(s.Parent)
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d %q [%v,%v] lies outside its parent %q [%v,%v]",
					s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if self := tr.self(s.ID); self < 0 {
			return fmt.Errorf("span %d %q has negative self time %v", s.ID, s.Name, self)
		}
	}
	return nil
}

// traceFile is the document a traced run writes when it ends.
type traceFile struct {
	Workload   string            `json:"workload"`
	Provenance provenance        `json:"provenance"`
	Failures   map[string][2]int `json:"failures"`
	Spans      []span            `json:"spans"`
}

func writeTraceFile(path string, doc traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
