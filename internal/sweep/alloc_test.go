package sweep

import (
	"runtime"
	"testing"

	"kprof/internal/sim"
	"kprof/internal/workload"
)

// sweepPass runs one eight-seed netrecv sweep, aggregation included, and
// reports how many records it decoded across all seeds.
func sweepPass() int {
	res, err := Run(Config{
		Scenario: "netrecv",
		Seeds:    []uint64{1, 2, 3, 4, 5, 6, 7, 8},
		Params:   workload.Params{Duration: 100 * sim.Millisecond},
	})
	if err != nil {
		panic(err)
	}
	total := 0
	for _, r := range res.PerSeed {
		total += r.Records
	}
	return total
}

// TestSweepAllocCeiling holds the multi-seed sweep (eight booted machines
// per pass, aggregation included) to an exact allocation ceiling of 0.08
// allocs/record, after a warm-up pass has filled every package-level
// pool. The ceiling leaves headroom for goroutine and map-growth jitter
// across Go releases.
func TestSweepAllocCeiling(t *testing.T) {
	sweepPass() // warm package-level pools and tables
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := sweepPass()
	runtime.ReadMemStats(&m1)
	if n == 0 {
		t.Fatal("pass processed no records")
	}
	allocs := m1.Mallocs - m0.Mallocs
	per := float64(allocs) / float64(n)
	t.Logf("records=%d allocs=%d allocs/record=%.4f bytes/record=%.1f",
		n, allocs, per, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	if per > 0.08 {
		t.Errorf("sweep hot path allocates %.4f allocs/record, ceiling 0.08", per)
	}
}
