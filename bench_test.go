// The benchmark harness regenerates every table and figure in the paper's
// evaluation. Each benchmark runs the corresponding workload on the
// simulated machine and reports the reproduced quantities as custom metrics
// (virtual-time microseconds, percentages, call counts), so
//
//	go test -bench=. -benchmem
//
// prints the numbers EXPERIMENTS.md records against the paper's. Run with
// -v to also get the rendered report tables.
package kprof_test

import (
	"runtime"
	"testing"
	"time"

	"kprof"
	"kprof/internal/analyze"
	"kprof/internal/bus"
	"kprof/internal/core"
	"kprof/internal/fs"
	"kprof/internal/kernel"
	"kprof/internal/netstack"
	"kprof/internal/sampling"
	"kprof/internal/sim"
	"kprof/internal/snmp"
	"kprof/internal/workload"
)

func newProfiled(b *testing.B, seed uint64, mods []string) (*core.Machine, *core.Session) {
	b.Helper()
	m := core.NewMachine(kernel.Config{Seed: seed})
	s, err := core.NewSession(m, core.ProfileConfig{Modules: mods})
	if err != nil {
		b.Fatal(err)
	}
	return m, s
}

func pctOf(a *analyze.Analysis, name string) float64 {
	st, ok := a.Fn(name)
	if !ok || a.RunTime() <= 0 {
		return 0
	}
	return 100 * float64(st.Net) / float64(a.RunTime())
}

// BenchmarkFigure3NetworkSummary reproduces Figure 3: the per-function
// summary of the TCP receive saturation test. Paper: bcopy 33.59% net,
// in_cksum 30.82%, splnet 5.35%, idle 1.01%.
func BenchmarkFigure3NetworkSummary(b *testing.B) {
	var last *analyze.Analysis
	for i := 0; i < b.N; i++ {
		m, s := newProfiled(b, 42, nil)
		s.Arm()
		if _, err := workload.NetReceive(m, 400*sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		s.Disarm()
		last = s.Analyze()
	}
	b.ReportMetric(pctOf(last, "bcopy"), "bcopy_%net")
	b.ReportMetric(pctOf(last, "in_cksum"), "in_cksum_%net")
	b.ReportMetric(pctOf(last, "splnet"), "splnet_%net")
	b.ReportMetric(100*float64(last.Idle)/float64(last.Elapsed()), "idle_%")
	b.ReportMetric(float64(last.Stats.Records), "tags")
	if testing.Verbose() {
		b.Logf("\n%s", last.SummaryString(12))
	}
}

// BenchmarkFigure4CodePathTrace reproduces Figure 4: the real-time
// code-path trace of the same run.
func BenchmarkFigure4CodePathTrace(b *testing.B) {
	var trace string
	for i := 0; i < b.N; i++ {
		m, s := newProfiled(b, 42, nil)
		s.Arm()
		if _, err := workload.NetReceive(m, 60*sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		s.Disarm()
		trace = s.Analyze().TraceString(analyze.TraceOptions{
			From: 20 * sim.Millisecond, MaxLines: 60,
		})
	}
	b.ReportMetric(float64(len(trace)), "trace_bytes")
	if testing.Verbose() {
		b.Logf("\n%s", trace)
	}
}

// BenchmarkTable1FunctionTimings reproduces Table 1: sample function
// timings (inclusive of subroutines) under a mixed workload. Paper:
// vm_fault 410, kmem_alloc 801, malloc 37, free 32, splnet 11, spl0 25,
// copyinstr 170 (µs).
func BenchmarkTable1FunctionTimings(b *testing.B) {
	var last *analyze.Analysis
	for i := 0; i < b.N; i++ {
		m, s := newProfiled(b, 7, nil)
		s.Arm()
		workload.Mixed(m, sim.Second)
		s.Disarm()
		last = s.Analyze()
	}
	report := func(name string) {
		if st, ok := last.Fn(name); ok {
			b.ReportMetric(float64(st.AvgElapsed().Micros()), name+"_us")
		}
	}
	for _, name := range []string{"vm_fault", "kmem_alloc", "malloc", "free", "splnet", "spl0", "copyinstr"} {
		report(name)
	}
}

// BenchmarkFigure5ForkExec reproduces Figure 5 and the fork/exec timings.
// Paper: vfork ≈24 ms, execve ≈28 ms, pmap_pte ≈1053 calls per fork,
// pmap_remove the top net consumer, >50% of the time in the VM layer.
func BenchmarkFigure5ForkExec(b *testing.B) {
	var res *workload.ForkExecResult
	var last *analyze.Analysis
	var m *core.Machine
	for i := 0; i < b.N; i++ {
		var s *core.Session
		m, s = newProfiled(b, 7, nil)
		s.Arm()
		res = workload.ForkExec(m, 3)
		s.Disarm()
		last = s.Analyze()
	}
	b.ReportMetric(float64(res.ForkTime.Micros()), "vfork_us")
	b.ReportMetric(float64(res.ExecTime.Micros()), "execve_us")
	b.ReportMetric(float64(res.PmapPteCallsPerFork), "pmap_pte_calls/fork")
	var vmPct float64
	for _, g := range last.Groups(m.SubsystemOf()) {
		if g.Name == "vm" {
			vmPct = g.PctNet
		}
	}
	b.ReportMetric(vmPct, "vm_%net")
	if testing.Verbose() {
		b.Logf("\n%s", last.SummaryString(12))
	}
}

// BenchmarkPacketCostBreakdown reproduces E1: the per-packet cost
// arithmetic of the Network Performance section. Paper: driver bcopy
// ≈1045 µs per full packet, in_cksum ≈843 µs/KiB, ≈2000 µs per packet.
func BenchmarkPacketCostBreakdown(b *testing.B) {
	var copyUS, cksumKiB, totalUS float64
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(kernel.Config{Seed: 1})
		// Direct bus-model measurements.
		copyUS = float64(bus.CopyCost(1500, bus.ISA8, bus.MainMemory).Micros())
		start := m.K.Now()
		m.Net.Cksum(make([]byte, 1024), bus.MainMemory)
		cksumKiB = float64((m.K.Now() - start).Micros())
		// Whole-path cost: one warm packet through the stack.
		m.Net.SoCreate(netstack.ProtoTCP, 5001)
		sender := netstack.NewSender(m.Net, 5001)
		sender.SendOne()
		m.K.Advance(sim.Microsecond)
		start = m.K.Now()
		sender.SendOne()
		m.K.Advance(sim.Microsecond)
		totalUS = float64((m.K.Now() - start).Micros())
	}
	b.ReportMetric(copyUS, "driver_copy_us")    // paper: ≈1045
	b.ReportMetric(cksumKiB, "in_cksum_KiB_us") // paper: ≈843
	b.ReportMetric(totalUS, "packet_total_us")  // paper: ≈2000
}

// BenchmarkWhatIfMbufLinking reproduces E2a: the rejected design of
// linking controller buffers into mbufs, run for real. Paper's estimate:
// ≈2000 → ≈3000 µs per packet (a loss).
func BenchmarkWhatIfMbufLinking(b *testing.B) {
	perByte := func(linking bool) float64 {
		m := core.NewMachine(kernel.Config{Seed: 42})
		m.Net.ChecksumInController = linking
		res, err := workload.NetReceive(m, 200*sim.Millisecond)
		if err != nil || res.BytesDelivered == 0 {
			b.Fatal("no data", err)
		}
		return float64(200*sim.Millisecond) / float64(res.BytesDelivered)
	}
	var base, linked float64
	for i := 0; i < b.N; i++ {
		base = perByte(false)
		linked = perByte(true)
	}
	b.ReportMetric(100*(linked/base-1), "cpu_per_byte_change_%") // paper: +50% (2000→3000)
}

// BenchmarkWhatIfOptimizedCksum reproduces E2b: recoding in_cksum. Paper's
// estimate: ≈2000 → ≈1200 µs per packet (a win).
func BenchmarkWhatIfOptimizedCksum(b *testing.B) {
	perByte := func(mode netstack.CksumMode) float64 {
		m := core.NewMachine(kernel.Config{Seed: 42})
		m.Net.CksumMode = mode
		res, err := workload.NetReceive(m, 200*sim.Millisecond)
		if err != nil || res.BytesDelivered == 0 {
			b.Fatal("no data", err)
		}
		return float64(200*sim.Millisecond) / float64(res.BytesDelivered)
	}
	var naive, opt float64
	for i := 0; i < b.N; i++ {
		naive = perByte(netstack.CksumNaive)
		opt = perByte(netstack.CksumOptimized)
	}
	b.ReportMetric(100*(opt/naive-1), "cpu_per_byte_change_%") // paper: −40% (2000→1200)
}

// BenchmarkClockInterrupt reproduces E3: the clock tick cost. Paper:
// ≈94 µs average, with ≈24 µs of software-interrupt emulation.
func BenchmarkClockInterrupt(b *testing.B) {
	var avgUS float64
	for i := 0; i < b.N; i++ {
		m, s := newProfiled(b, 1, nil)
		s.Arm()
		workload.RunFor(m, sim.Second) // pure idle: only clock activity
		s.Disarm()
		a := s.Analyze()
		if st, ok := a.Fn("ISAINTR"); ok && st.Calls > 0 {
			avgUS = float64(st.AvgElapsed().Micros())
		}
	}
	b.ReportMetric(avgUS, "clock_intr_us") // paper: ≈94
}

// BenchmarkSplOverhead reproduces E4: spl* cost. Paper: splnet ≈11 µs;
// 9% of total CPU in spl* under network load.
func BenchmarkSplOverhead(b *testing.B) {
	var splnetUS, splPct float64
	for i := 0; i < b.N; i++ {
		m, s := newProfiled(b, 42, nil)
		s.Arm()
		if _, err := workload.NetReceive(m, 300*sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		s.Disarm()
		a := s.Analyze()
		if st, ok := a.Fn("splnet"); ok {
			splnetUS = float64(st.AvgElapsed().Micros())
		}
		splPct = 0
		for _, n := range []string{"splnet", "splx", "spl0", "splbio", "spltty", "splclock", "splhigh"} {
			splPct += pctOf(a, n)
		}
	}
	b.ReportMetric(splnetUS, "splnet_us") // paper: ≈11
	b.ReportMetric(splPct, "spl_%net")    // paper: ≈9
}

// BenchmarkFFSWriteProfile reproduces E5: the FFS write study. Paper: CPU
// ≈28% busy, write interrupt ≈200 µs (149 µs transfer), gaps <100 µs.
func BenchmarkFFSWriteProfile(b *testing.B) {
	var cpuPct, wdUS, shortFrac float64
	for i := 0; i < b.N; i++ {
		m, s := newProfiled(b, 3, nil)
		s.Arm()
		res := workload.FFSWrite(m, 2*sim.Second)
		s.Disarm()
		a := s.Analyze()
		cpuPct = 100 * float64(a.RunTime()) / float64(a.Elapsed())
		if st, ok := a.Fn("wdintr"); ok {
			wdUS = float64(st.AvgElapsed().Micros())
		}
		if res.DiskInterrupts > 0 {
			shortFrac = 100 * float64(res.ShortGaps) / float64(res.DiskInterrupts)
		}
	}
	b.ReportMetric(cpuPct, "cpu_busy_%")       // paper: ≈28
	b.ReportMetric(wdUS, "write_intr_us")      // paper: ≈200
	b.ReportMetric(shortFrac, "gaps_<100us_%") // paper: "most"
}

// BenchmarkNFSvsFTP reproduces E6. Paper: with UDP checksums off, NFS has
// less CPU overhead than an FTP-style TCP transfer.
func BenchmarkNFSvsFTP(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		m1 := core.NewMachine(kernel.Config{Seed: 5})
		nfsRes, err := workload.NFSTransfer(m1, 128*1024)
		if err != nil {
			b.Fatal(err)
		}
		m2 := core.NewMachine(kernel.Config{Seed: 5})
		ftpRes, err := workload.FTPTransfer(m2, 128*1024)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(ftpRes.CPUProxy) / float64(nfsRes.CPUProxy)
	}
	b.ReportMetric(ratio, "ftp/nfs_cpu_ratio") // paper: >1
}

// BenchmarkSNMPLinearVsBTree reproduces E7: the MIB redesign case study.
// Paper: an order of magnitude fewer CPU cycles per request.
func BenchmarkSNMPLinearVsBTree(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		k1 := kernel.New(kernel.Config{Seed: 1})
		lin := snmp.NewLinearStore()
		snmp.StandardMIB(lin, 1000)
		la := snmp.NewAgent(k1, lin, "lin")
		start := k1.Now()
		la.Walk()
		linTime := k1.Now() - start

		k2 := kernel.New(kernel.Config{Seed: 1})
		bt := snmp.NewBTreeStore()
		snmp.StandardMIB(bt, 1000)
		ba := snmp.NewAgent(k2, bt, "bt")
		start = k2.Now()
		ba.Walk()
		btTime := k2.Now() - start
		ratio = float64(linTime) / float64(btTime)
	}
	b.ReportMetric(ratio, "linear/btree_cpu") // paper: ≈10
}

// BenchmarkTriggerOverhead reproduces E8: the cost of the trigger
// instructions themselves. Paper: ≈1-1.2% extra CPU cycles; "no noticeable
// difference ... between a profiled and a non-profiled kernel".
func BenchmarkTriggerOverhead(b *testing.B) {
	var overheadPct float64
	for i := 0; i < b.N; i++ {
		bare := core.NewMachine(kernel.Config{Seed: 7})
		r1 := workload.ForkExec(bare, 3)

		m, s := newProfiled(b, 7, nil)
		s.Arm()
		r2 := workload.ForkExec(m, 3)
		s.Disarm()
		overheadPct = 100 * (float64(r2.ForkTime+r2.ExecTime)/float64(r1.ForkTime+r1.ExecTime) - 1)
	}
	b.ReportMetric(overheadPct, "overhead_%") // paper: ≈1-1.2
}

// BenchmarkProfilerFillRate reproduces E9: how fast a busy kernel fills the
// 16384-event RAM. Paper: "as short a time as 300 milliseconds". Also
// reports the instrumented-function census (paper: 1392 C + 35 asm; our
// model kernel is necessarily smaller).
func BenchmarkProfilerFillRate(b *testing.B) {
	var fillMS, cFns, asmFns float64
	for i := 0; i < b.N; i++ {
		m, s := newProfiled(b, 42, nil)
		s.Arm()
		workload.NetReceive(m, 2*sim.Second)
		s.Disarm()
		if !s.Card.Overflowed() {
			b.Fatal("card did not fill")
		}
		a := s.Analyze()
		fillMS = float64(a.Elapsed()) / float64(sim.Millisecond)
		cFns = float64(s.Inst.CFunctions)
		asmFns = float64(s.Inst.AsmFunctions)
	}
	b.ReportMetric(fillMS, "fill_ms") // paper: ≈300 on a busy kernel
	b.ReportMetric(cFns, "c_fns")
	b.ReportMetric(asmFns, "asm_fns")
}

// BenchmarkISAvsMainMemory reproduces E10: the bus-speed gap. Paper: the
// ISA bus is up to 20 times slower than main memory.
func BenchmarkISAvsMainMemory(b *testing.B) {
	var slow float64
	for i := 0; i < b.N; i++ {
		slow = bus.SlowdownVsMain(bus.ISA8)
	}
	b.ReportMetric(slow, "isa8_slowdown_x") // paper: ≈20
}

// BenchmarkCaptureDecode reproduces E11 and measures the analyzer itself:
// decoding and reconstructing a full 16384-event capture, wrap and
// context-switch handling included.
func BenchmarkCaptureDecode(b *testing.B) {
	m, s := newProfiled(b, 42, nil)
	s.Arm()
	workload.NetReceive(m, 2*sim.Second)
	s.Disarm()
	c := s.Capture()
	if c.Len() == 0 {
		b.Fatal("empty capture")
	}
	b.ResetTimer()
	var a *kprof.Analysis
	for i := 0; i < b.N; i++ {
		a = kprof.Analyze(c, s.Tags)
	}
	b.ReportMetric(float64(c.Len()), "events")
	b.ReportMetric(float64(a.Switches), "ctx_switches")
}

// BenchmarkSweepParallel measures the multi-seed sweep engine: the same
// (scenario, seed) set run through the worker pool at GOMAXPROCS versus
// serially (Parallel: 1). The merged statistics must be identical — the
// fold happens in seed order after the pool drains — and the wall-clock
// ratio is reported as speedup_x: near-linear on a multi-core host
// (workers share nothing but the job queue), necessarily ≈1 on one core.
func BenchmarkSweepParallel(b *testing.B) {
	seeds, err := kprof.ParseSeeds("1..8")
	if err != nil {
		b.Fatal(err)
	}
	cfg := kprof.SweepConfig{
		Scenario: "netrecv",
		Seeds:    seeds,
		Params:   kprof.WorkloadParams{Duration: 100 * sim.Millisecond},
	}
	serialCfg := cfg
	serialCfg.Parallel = 1
	start := time.Now()
	serial, err := kprof.Sweep(serialCfg)
	if err != nil {
		b.Fatal(err)
	}
	serialWall := time.Since(start)

	b.ResetTimer()
	var parallel *kprof.SweepResult
	for i := 0; i < b.N; i++ {
		if parallel, err = kprof.Sweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if parallel.Agg.String() != serial.Agg.String() {
		b.Fatalf("parallel merge differs from serial\n--- parallel ---\n%s--- serial ---\n%s",
			parallel.Agg.String(), serial.Agg.String())
	}
	parWall := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(serialWall)/float64(parWall), "speedup_x")
	b.ReportMetric(float64(parallel.Workers), "workers")
	b.ReportMetric(float64(len(seeds)), "seeds")
	if testing.Verbose() {
		b.Logf("\n%s", parallel.Agg.String())
	}
}

// BenchmarkAblationSelectiveProfiling contrasts whole-kernel (macro) with
// module-restricted (micro) instrumentation: fewer tags per second means a
// longer observation window in the same RAM — the paper's motivation for
// selective profiling.
func BenchmarkAblationSelectiveProfiling(b *testing.B) {
	window := func(mods []string) float64 {
		m, s := newProfiled(b, 42, mods)
		s.Arm()
		workload.NetReceive(m, 2*sim.Second)
		s.Disarm()
		a := s.Analyze()
		return float64(a.Elapsed()) / float64(sim.Millisecond)
	}
	var macro, micro float64
	for i := 0; i < b.N; i++ {
		macro = window(nil)
		micro = window([]string{"if_we", "ip_input", "tcp_input"})
	}
	b.ReportMetric(macro, "whole_kernel_window_ms")
	b.ReportMetric(micro, "selective_window_ms")
}

// BenchmarkAblationSamplingVsHardware puts the paper's rejected software
// alternative head to head with the card: a skewed 1 kHz clock-sampling
// profiler and the hardware profiler watch the same saturation run. The
// sampler lands in the right region but carries sampling noise and its own
// interrupt load; the card's error is its 400 ns triggers.
func BenchmarkAblationSamplingVsHardware(b *testing.B) {
	var hwPct, swPct float64
	for i := 0; i < b.N; i++ {
		m, s := newProfiled(b, 42, nil)
		sampler := sampling.New(m.K, 1000, true)
		sampler.Start()
		s.Arm()
		if _, err := workload.NetReceive(m, 400*sim.Millisecond); err != nil {
			b.Fatal(err)
		}
		s.Disarm()
		sampler.Stop()
		a := s.Analyze()
		if st, ok := a.Fn("bcopy"); ok {
			hwPct = 100 * float64(st.Net) / float64(a.RunTime())
		}
		swPct = 100 * sampler.Fraction("bcopy")
	}
	b.ReportMetric(hwPct, "hw_bcopy_%")
	b.ReportMetric(swPct, "sampler_bcopy_%")
}

// BenchmarkAblationClockPrecision contrasts the prototype's 1 MHz counter
// with the future-work 10 MHz upgrade on sub-microsecond functions: the
// prototype rounds pmap_pte's ≈3 µs calls to whole microseconds; the
// upgrade resolves them.
func BenchmarkAblationClockPrecision(b *testing.B) {
	spread := func(hz int64, bits uint) (avg, spreadUS float64) {
		m := core.NewMachine(kernel.Config{Seed: 7})
		s, err := core.NewSession(m, core.ProfileConfig{ClockHz: hz, TimerBits: bits})
		if err != nil {
			b.Fatal(err)
		}
		s.Arm()
		workload.ForkExec(m, 1)
		s.Disarm()
		a := s.Analyze()
		st, ok := a.Fn("pmap_pte")
		if !ok || st.Calls == 0 {
			b.Fatal("no pmap_pte")
		}
		avg = float64(st.Net) / float64(st.Calls) / 1000
		spreadUS = float64(st.Max-st.MinOrZero()) / 1000
		return
	}
	var protoSpread, fastSpread float64
	for i := 0; i < b.N; i++ {
		// The averages agree (quantization is unbiased); the per-call
		// uncertainty band is what the precision upgrade buys.
		_, protoSpread = spread(0, 0)
		_, fastSpread = spread(10_000_000, 28)
	}
	b.ReportMetric(protoSpread, "pte_spread_us_1MHz")
	b.ReportMetric(fastSpread, "pte_spread_us_10MHz")
}

// BenchmarkAblationAckPolicy measures the delayed-ack design choice the
// TCP model exposes: acking every packet versus every other.
func BenchmarkAblationAckPolicy(b *testing.B) {
	goodput := func(every bool) float64 {
		m := core.NewMachine(kernel.Config{Seed: 42})
		m.Net.AckEveryPacket = every
		res, err := workload.NetReceive(m, 200*sim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.BytesDelivered)
	}
	var everyB, delayedB float64
	for i := 0; i < b.N; i++ {
		everyB = goodput(true)
		delayedB = goodput(false)
	}
	b.ReportMetric(100*(delayedB/everyB-1), "delayed_ack_goodput_change_%")
}

// BenchmarkEmbeddedDriverRecoding reproduces the 68020 case study: "the
// recoding of an Ethernet driver doubled the network throughput."
func BenchmarkEmbeddedDriverRecoding(b *testing.B) {
	goodput := func(style netstack.DriverStyle) float64 {
		m, le := core.NewEmbeddedMachine(kernel.Config{Seed: 13}, style)
		res, err := workload.EmbeddedNetReceive(m, le, 400*sim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		return float64(res.BytesDelivered)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = goodput(netstack.DriverRecoded) / goodput(netstack.DriverOld)
	}
	b.ReportMetric(ratio, "recoded/old_throughput") // paper: ≈2
}

// BenchmarkArchSplComparison is the side-by-side the paper wishes for: the
// same spl operations on the i386 (ICU reprogramming) and the 68020
// (move-to-SR). "on the average it took 11 microseconds per splnet call
// ... it is hard to see how this could be improved, given the nature of
// the interrupt architecture."
func BenchmarkArchSplComparison(b *testing.B) {
	pair := func(arch kernel.Arch) float64 {
		k := kernel.New(kernel.Config{Seed: 1, Arch: arch})
		start := k.Now()
		for i := 0; i < 100; i++ {
			s := k.SplNet()
			k.SplX(s)
		}
		return float64((k.Now()-start)/100) / 1000 // µs per raise+restore
	}
	var i386us, m68kus float64
	for i := 0; i < b.N; i++ {
		i386us = pair(kernel.ArchI386)
		m68kus = pair(kernel.ArchM68K)
	}
	b.ReportMetric(i386us, "i386_spl_pair_us")
	b.ReportMetric(m68kus, "m68k_spl_pair_us")
}

// BenchmarkAblationDMAController answers the paper's FFS-section question:
// "It would be interesting to use a different type of controller (maybe one
// with DMA) and see what difference it makes." Same write load, measured
// through the Profiler, PIO versus DMA.
func BenchmarkAblationDMAController(b *testing.B) {
	busy := func(mode fs.TransferMode) float64 {
		m, s := newProfiled(b, 3, nil)
		m.FS.Disk.Mode = mode
		s.Arm()
		workload.FFSWrite(m, 2*sim.Second)
		s.Disarm()
		a := s.Analyze()
		return 100 * float64(a.RunTime()) / float64(a.Elapsed())
	}
	var pio, dma float64
	for i := 0; i < b.N; i++ {
		pio = busy(fs.PIO)
		dma = busy(fs.DMA)
	}
	b.ReportMetric(pio, "pio_cpu_busy_%") // paper: ≈28
	b.ReportMetric(dma, "dma_cpu_busy_%")
}

// BenchmarkAnalyzeFull measures the retaining analysis the CLI runs for a
// drained proday capture (Session.Analyze: event list, trace timeline and
// invocation trees all kept), reporting ns/record and allocs/record. The
// capture is built once, outside the timed loop.
func BenchmarkAnalyzeFull(b *testing.B) {
	m := core.NewMachine(kernel.Config{Seed: 1})
	p := workload.Params{Duration: sim.Second}
	if err := workload.ProdaySetup(m, p); err != nil {
		b.Fatal(err)
	}
	s, err := core.NewSession(m, core.ProfileConfig{Mode: core.CaptureContinuous})
	if err != nil {
		b.Fatal(err)
	}
	s.Arm()
	if _, err := workload.Proday(m, p); err != nil {
		b.Fatal(err)
	}
	s.Disarm()
	records := s.Analyze().Stats.Records
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Analyze()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
	b.ReportMetric(float64(records), "records")
}
