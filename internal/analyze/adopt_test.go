package analyze

import (
	"strings"
	"testing"

	"kprof/internal/hw"
	"kprof/internal/sim"
)

// The Figure 4 resume shape: between "Context switch in" and the orphan
// tsleep exit there are completed calls (splx in the paper's trace). Those
// tentative frames must be spliced in as children of the resumed frame.
//
// Tag file: a=500, b=502 (stands in for tsleep), c=504 (stands in for
// splx), swtch=600!.
func TestAdoptSplicesTentativeFrames(t *testing.T) {
	a := analyzeCap(t, capOf(
		[2]uint32{500, 0},   // a enter       (process A)
		[2]uint32{502, 10},  // b enter       (A blocks inside b)
		[2]uint32{600, 20},  // swtch enter   -> idle
		[2]uint32{601, 60},  // swtch exit    -> pending resume
		[2]uint32{504, 65},  // c enter       (balanced call before the orphan exit)
		[2]uint32{505, 75},  // c exit
		[2]uint32{503, 90},  // b exit        <- orphan: adopts A's stack
		[2]uint32{501, 100}, // a exit
	))
	sb, ok := a.Fn("b")
	if !ok {
		t.Fatal("b missing")
	}
	// b in-context: 10..90 minus 20..60 switched out = 40; minus child c
	// (10) = net 30.
	if sb.Elapsed != 40*sim.Microsecond {
		t.Fatalf("b elapsed = %v, want 40 µs", sb.Elapsed)
	}
	if sb.Net != 30*sim.Microsecond {
		t.Fatalf("b net = %v, want 30 µs (c spliced in as child)", sb.Net)
	}
	// And c must appear as a child of b in the tree.
	var bNode *Node
	for _, it := range a.Items {
		if it.Kind == TraceExit && it.Node != nil && it.Node.Name == "b" {
			bNode = it.Node
		}
	}
	if bNode == nil || len(bNode.Children) != 1 || bNode.Children[0].Name != "c" {
		t.Fatalf("b's children = %+v", bNode)
	}
	if a.OrphanExits != 0 {
		t.Fatalf("orphan exits = %d", a.OrphanExits)
	}
	if a.Idle != 40*sim.Microsecond {
		t.Fatalf("idle = %v", a.Idle)
	}
}

// Two suspended processes sleeping in the same function: adoption must pick
// the oldest (FIFO, matching the run queue) and keep the books straight.
func TestAdoptPicksOldestMatchingStack(t *testing.T) {
	a := analyzeCap(t, capOf(
		// Process 1: a { swtch
		[2]uint32{500, 0}, [2]uint32{600, 10},
		// Process 2 first dispatch: swtch exit; a { swtch (suspends too)
		[2]uint32{601, 20}, [2]uint32{500, 25}, [2]uint32{600, 35},
		// Resume: exit of a — ambiguous; FIFO picks process 1's stack.
		[2]uint32{601, 50}, [2]uint32{501, 60},
		// Resume again: the remaining stack's a exits.
		[2]uint32{600, 70}, [2]uint32{601, 80}, [2]uint32{501, 95},
	))
	sa, _ := a.Fn("a")
	if sa.Calls != 2 {
		t.Fatalf("a calls = %d", sa.Calls)
	}
	// Process 1's a: 0..60 minus 10..50 switched out = 20. Process 2's a:
	// 25..95 minus 35..80 switched out (idle, process 1's turn, idle
	// again) = 25. Total elapsed 45.
	if sa.Elapsed != 45*sim.Microsecond {
		t.Fatalf("a elapsed total = %v, want 45 µs", sa.Elapsed)
	}
	if a.OrphanExits != 0 {
		t.Fatalf("orphans = %d", a.OrphanExits)
	}
}

// An unclosed tentative frame at adoption time is malformed input (lost
// exit events); the analyzer must recover, not corrupt. The stranded frame
// is force-closed at the adopting exit and counted as an untimed call,
// identically on the full and the lean path.
func TestAdoptWithUnclosedTentativeFrame(t *testing.T) {
	c := capOf(
		[2]uint32{500, 0}, [2]uint32{600, 10}, // a { swtch
		[2]uint32{601, 20},
		[2]uint32{504, 25},                     // c enters and never exits (lost event)
		[2]uint32{501, 40},                     // orphan exit of a -> adopt
		[2]uint32{502, 50}, [2]uint32{503, 60}, // life goes on
	)
	a := analyzeCap(t, c)
	if a.Recovered != 1 {
		t.Fatalf("recovered = %d, want 1 (the unclosed tentative c)", a.Recovered)
	}
	sb, _ := a.Fn("b")
	if sb.Calls != 1 || sb.Elapsed != 10*sim.Microsecond {
		t.Fatalf("post-recovery b = %+v", sb)
	}
	if sc, _ := a.Fn("c"); sc == nil || sc.Calls != 1 || sc.TimedCalls != 0 {
		t.Fatalf("c: stat %+v, want 1 untimed call", sc)
	}
	for _, it := range a.Items {
		if it.Node != nil && it.Node.End == 0 {
			t.Fatalf("%s left in the trace with End = 0", it.Node.Name)
		}
		if it.Node != nil && it.Node.Name == "c" && it.Node.End != 40*sim.Microsecond {
			t.Fatalf("c: end %v, want force-closed at 40 µs", it.Node.End)
		}
	}
	rc := NewReconstructor(c.ClockConfig(), mustTags(t), ReconstructOptions{DiscardEvents: true, DiscardTrace: true})
	for _, r := range c.Records {
		rc.Push(r)
	}
	requireIdentical(t, "lean adopt", rc.Finish(c.Overflowed, c.Dropped), a)
}

// The root hook sees the Figure 4 resume shape exactly as the retained
// trace nests it: the balanced call before the orphan exit closes as a
// top-level frame on the tentative stack and is passed at once, then is
// passed again spliced under the resumed frame inside its root. A root
// force-closed at a lossy boundary is never passed.
func TestOnRootSplicesTentativeRoot(t *testing.T) {
	var got []string
	var fold func(prefix string, n *Node)
	fold = func(prefix string, n *Node) {
		stack := prefix + n.Name
		got = append(got, stack)
		for _, c := range n.Children {
			fold(stack+";", c)
		}
	}
	rc := NewReconstructor(hw.Config{}, mustTags(t), ReconstructOptions{
		DiscardEvents: true,
		DiscardTrace:  true,
		OnRoot:        func(n *Node) { fold("", n) },
	})
	rc.PushBatch(capOf(
		[2]uint32{500, 0},   // a enter       (process A)
		[2]uint32{502, 10},  // b enter       (A blocks inside b)
		[2]uint32{600, 20},  // swtch enter   -> idle
		[2]uint32{601, 60},  // swtch exit    -> pending resume
		[2]uint32{504, 65},  // c enter       (balanced call before the orphan exit)
		[2]uint32{505, 75},  // c exit        -> tentative root, passed
		[2]uint32{503, 90},  // b exit        <- orphan: adopts A's stack, splices c
		[2]uint32{501, 100}, // a exit        -> a;b;c passed
		[2]uint32{500, 110}, // a enter
		[2]uint32{502, 120}, // b enter
	).Records)
	rc.EndSegment(3, false) // lossy: a and b force-closed, never passed
	rc.PushBatch(capOf([2]uint32{504, 130}, [2]uint32{505, 140}).Records)
	rc.Finish(false, 0)

	want := []string{"c", "a", "a;b", "a;b;c", "c"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("root hook folded %q, want %q", got, want)
	}
}
