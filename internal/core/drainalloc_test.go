// The drain's allocation ceiling runs the netrecv workload, and
// internal/workload imports core, so it lives in the external test package.
package core_test

import (
	"runtime"
	"testing"

	"kprof/internal/core"
	"kprof/internal/kernel"
	"kprof/internal/sim"
	"kprof/internal/workload"
)

// drainPass runs one full drain-and-stitch capture — boot, pipelined
// recycling drain under the netrecv workload, lean analysis — and reports
// how many records it processed.
func drainPass() int {
	m := core.NewMachine(kernel.Config{Seed: 42})
	s, err := core.NewSession(m, core.ProfileConfig{
		Mode:  core.CaptureContinuous,
		Depth: 4096,
		Drain: core.DrainConfig{Recycle: true},
	})
	if err != nil {
		panic(err)
	}
	s.Arm()
	if _, err := workload.NetReceive(m, 400*sim.Millisecond); err != nil {
		panic(err)
	}
	s.Disarm()
	return s.AnalyzeLean().Stats.Records
}

// TestDrainZeroAlloc holds the drained hot path's allocation discipline as
// an exact ceiling: a full pipelined recycling drain — boot included — must
// stay at or under 0.05 allocs/record. The steady-state drain loop itself
// is allocation-free (buffers recycle through the readout pool, scheduler
// events and frames through theirs); the residue this ceiling admits is
// boot and the final report. Mirrors analyze's
// TestSteadyStatePushZeroAlloc one layer up.
func TestDrainZeroAlloc(t *testing.T) {
	drainPass() // warm package-level pools and tables
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := drainPass()
	runtime.ReadMemStats(&m1)
	if n == 0 {
		t.Fatal("pass processed no records")
	}
	allocs := m1.Mallocs - m0.Mallocs
	per := float64(allocs) / float64(n)
	t.Logf("records=%d allocs=%d allocs/record=%.4f bytes/record=%.1f",
		n, allocs, per, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	if per > 0.05 {
		t.Errorf("drained hot path allocates %.4f allocs/record, ceiling 0.05", per)
	}
}
