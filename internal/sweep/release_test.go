package sweep

import (
	"runtime"
	"testing"
	"time"

	"kprof/internal/core"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// After Run returns, none of its machines' goroutines remain: not at the
// 50 ms length, where every proday proc is still waiting for its first
// dispatch when the run ends, nor at the golden's 600 ms / 100 conns /
// 300 rate, where the connection sinks are asleep in soreceive.
func TestSweepReleasesMachines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		seeds  []uint64
		params workload.Params
	}{
		{[]uint64{1, 2, 3, 4}, workload.Params{Duration: 50 * sim.Millisecond}},
		{[]uint64{5, 6}, workload.Params{Duration: 600 * sim.Millisecond, Conns: 100, Rate: 300}},
	} {
		_, err := Run(Config{
			Scenario: "proday",
			Seeds:    c.seeds,
			Parallel: 2,
			Params:   c.params,
			Profile:  core.ProfileConfig{Mode: core.CaptureContinuous},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Halted procs exit asynchronously: poll up to a deadline.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() != base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("%v at %v: NumGoroutine = %d after Run, want %d", c.seeds, c.params.Duration, n, base)
		}
	}
}
