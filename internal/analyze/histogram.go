package analyze

import (
	"fmt"
	"io"
	"strings"

	"kprof/internal/sim"
)

// Histogram of a function's per-call elapsed times — one of the "more
// useful ways" of processing the raw data the paper's future-work section
// anticipates.
type Histogram struct {
	Name    string
	Buckets []Bucket
	Total   int
}

// Bucket is one histogram bin: [Lo, Hi) microseconds.
type Bucket struct {
	Lo, Hi sim.Time
	Count  int
}

// HistogramOf builds a log-2-bucketed histogram of every completed
// invocation of name.
func (a *Analysis) HistogramOf(name string) *Histogram {
	h := &Histogram{Name: name}
	var durations []sim.Time
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Name == name && n.Complete {
			durations = append(durations, n.Elapsed())
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, it := range a.Items {
		if it.Kind == TraceExit && it.Node != nil && it.Depth == 0 {
			walk(it.Node)
		}
	}
	if len(durations) == 0 {
		return h
	}
	// Log-2 buckets from 1 µs.
	lo := sim.Microsecond
	for {
		hi := lo * 2
		b := Bucket{Lo: lo, Hi: hi}
		for _, d := range durations {
			if d >= lo && d < hi {
				b.Count++
			}
		}
		// Include a catch-all first bucket for sub-µs calls.
		if lo == sim.Microsecond {
			for _, d := range durations {
				if d < sim.Microsecond {
					b.Count++
					b.Lo = 0
				}
			}
		}
		h.Buckets = append(h.Buckets, b)
		h.Total += b.Count
		if h.Total >= len(durations) {
			break
		}
		lo = hi
		if lo > sim.Second*16 {
			break
		}
	}
	return h
}

// Write renders the histogram as an ASCII bar chart.
func (h *Histogram) Write(w io.Writer) error {
	ew := &ErrWriter{W: w}
	fmt.Fprintf(ew, "%s: %d calls\n", h.Name, h.Total)
	max := 0
	for _, b := range h.Buckets {
		if b.Count > max {
			max = b.Count
		}
	}
	for _, b := range h.Buckets {
		if b.Count == 0 {
			continue
		}
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", 1+b.Count*40/max)
		}
		fmt.Fprintf(ew, "%8d-%-8d us %6d %s\n", b.Lo.Micros(), b.Hi.Micros(), b.Count, bar)
	}
	return ew.Err
}

// String renders the histogram.
func (h *Histogram) String() string {
	var b strings.Builder
	_ = h.Write(&b)
	return b.String()
}
