package kernel

import (
	"runtime"
	"testing"
	"time"

	"kprof/internal/sim"
)

// waitGoroutines polls until runtime.NumGoroutine() drops to want: halted
// proc goroutines exit asynchronously. It fails the test if the count is
// still above want at the deadline.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n == want {
			return
		}
		if n < want || time.Now().After(deadline) {
			t.Fatalf("NumGoroutine = %d, want %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// Halt releases every proc goroutine whatever state the proc was left in
// — exited, asleep on an ident, asleep with a pending timeout, yielded and
// runnable, never dispatched — and changes nothing a profile could see.
func TestHaltReleasesProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := newTestKernel()
	triggers := 0
	k.SetTrigger(func(uint32) { triggers++ })
	k.MustFn("swtch").SetTriggers(10, 11)

	var ident, timed int
	procs := []*Proc{
		k.Spawn("exited", func(p *Proc) { k.Advance(sim.Microsecond) }),
		k.Spawn("ident", func(p *Proc) { k.Tsleep(&ident, "wait", 0) }),
		k.Spawn("timeout", func(p *Proc) { k.Tsleep(&timed, "slp", 1000) }),
		k.Spawn("yielder", func(p *Proc) {
			for {
				k.Advance(10 * sim.Microsecond)
				p.Yield()
			}
		}),
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("Spawn started goroutines: NumGoroutine = %d, want %d", n, base)
	}
	k.Run(5 * sim.Millisecond)
	procs = append(procs, k.Spawn("never", func(p *Proc) { t.Error("never-dispatched proc ran") }))

	want := []ProcState{ProcZombie, ProcSleeping, ProcSleeping, ProcRunnable, ProcRunnable}
	for i, p := range procs {
		if p.State() != want[i] {
			t.Fatalf("before Halt: %v, want %v", p, want[i])
		}
	}
	now, stats, trig := k.Now(), k.Stats, triggers
	if trig == 0 {
		t.Fatal("no swtch triggers fired")
	}

	k.Halt()
	for _, p := range procs {
		if p.State() != ProcZombie {
			t.Errorf("after Halt: %v", p)
		}
	}
	waitGoroutines(t, base)
	if k.Now() != now || k.Stats != stats || triggers != trig {
		t.Fatalf("Halt changed the machine: now %v→%v, stats %+v→%+v, triggers %d→%d",
			now, k.Now(), stats, k.Stats, trig, triggers)
	}

	k.Halt() // a second Halt is a no-op
	if k.Now() != now || k.Stats != stats || triggers != trig {
		t.Fatal("second Halt changed the machine")
	}
	mustPanic(t, "Run after Halt", func() { k.Run(10 * sim.Millisecond) })
	mustPanic(t, "RunUntilIdle after Halt", func() { k.RunUntilIdle(10 * sim.Millisecond) })
	mustPanic(t, "Spawn after Halt", func() { k.Spawn("late", func(*Proc) {}) })
	waitGoroutines(t, base)
}

// Halt from inside Run (here a callout on the scheduler context) panics
// and leaves the machine running.
func TestHaltInsideRunPanics(t *testing.T) {
	k := newTestKernel()
	panicked := false
	k.Scheduler().After(sim.Millisecond, func() {
		defer func() { panicked = recover() != nil }()
		k.Halt()
	})
	k.Run(2 * sim.Millisecond)
	if !panicked {
		t.Fatal("Halt inside Run did not panic")
	}
	k.Run(3 * sim.Millisecond) // not halted
}
