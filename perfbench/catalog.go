package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// metricDef is one catalogue entry: a metric's name and unit, whether
// lower or higher is better, the layer it measures, the workloads on which
// it is measured, and — for a per-layer metric — the end-to-end metric and
// workload it should move. Bound applies to end-to-end metrics only: the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	On     string
	Moves  string
}

// endToEnd lists what a user of the system sees. Every workload emits
// every one of them with tracing off; the catalogue says what each means
// on each workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "end-to-end",
		On: "all: proday/sweep the same command with one seed and 1 ms virtual; fleet RunSources call to first staged segment; serve Start to first 200 from /status.json (median of 101 starts, 20 ms apart)"},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "end-to-end",
		On: "all: wall time of the timed phase until its report is written (median of repetitions); serve: first due request to last response, summed over the timed phase's parts"},
	{Name: "ns_per_record", Unit: "ns", Better: "lower", Bound: 0.25, Layer: "end-to-end",
		On: "proday, sweep, fleet: run_s over the exact record count; serve: CPU of the server process per request served, since its wall time is fixed by the schedule"},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "end-to-end",
		On: "all: user+sys CPU of the process running the system under test over the timed phase (median of repetitions); serve: the server processes, which hold the StatusServer and its publisher but not the benchmark's clients, summed over the timed phase's parts"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2, Layer: "end-to-end",
		On: "all: peak resident memory of the process running the system under test (median of repetitions; serve: the largest of the parts' server processes)"},
	{Name: "req_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "end-to-end",
		On: "serve: HTTP request latency from its due time; proday, sweep: one command; fleet: one RunSources call plus report"},
}

const (
	onCLI   = "proday, sweep"
	onFleet = "fleet"
	onServe = "serve"
	onAll   = "all"
)

// perLayer lists the layer metrics the traced run reports. A workload
// that does not exercise a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{Name: "setup.machine_ms", Unit: "ms", Better: "lower", Layer: "core.NewMachine", On: onCLI, Moves: "setup_s on proday; run_s, cpu_s on sweep"},
	{Name: "setup.scenario_ms", Unit: "ms", Better: "lower", Layer: "workload Setup", On: onCLI, Moves: "setup_s on proday; run_s, cpu_s on sweep"},
	{Name: "setup.session_ms", Unit: "ms", Better: "lower", Layer: "core.NewSession", On: onCLI, Moves: "setup_s on proday; run_s, cpu_s on sweep"},
	{Name: "setup.allocs", Unit: "count", Better: "lower", Layer: "core/workload setup", On: onCLI, Moves: "setup_s on proday; cpu_s on sweep"},

	{Name: "capture.s", Unit: "s", Better: "lower", Layer: "workload/kernel/sim + hw/core", On: onCLI, Moves: "run_s, ns_per_record on proday and sweep; nothing on fleet, serve"},
	{Name: "capture.ns_per_record", Unit: "ns", Better: "lower", Layer: "workload/kernel/sim + hw/core", On: onCLI, Moves: "run_s, ns_per_record on proday and sweep"},
	{Name: "capture.allocs_per_record", Unit: "allocs/record", Better: "lower", Layer: "workload/kernel/sim + hw/core", On: onCLI, Moves: "cpu_s on proday and sweep"},
	{Name: "capture.unarmed_s", Unit: "s", Better: "lower", Layer: "workload/kernel/sim", On: onCLI, Moves: "run_s on proday and sweep"},
	{Name: "card.s", Unit: "s", Better: "lower", Layer: "hw/core", On: onCLI, Moves: "run_s, ns_per_record on proday and sweep"},
	{Name: "sim.virtual_ms", Unit: "ms", Better: "higher", Layer: "sim", On: onCLI, Moves: "exact count; ns_per_record on proday and sweep"},
	{Name: "kernel.ticks", Unit: "count", Better: "higher", Layer: "kernel", On: onCLI, Moves: "exact count; run_s on proday and sweep"},
	{Name: "card.strobes", Unit: "count", Better: "higher", Layer: "hw", On: onCLI, Moves: "exact count; ns_per_record on proday and sweep"},
	{Name: "card.segments", Unit: "count", Better: "lower", Layer: "hw/core", On: onCLI, Moves: "exact count; run_s on proday and sweep"},
	{Name: "card.dropped", Unit: "count", Better: "lower", Layer: "hw", On: onCLI, Moves: "exact count; failed_ratio on proday and sweep"},

	{Name: "analyze.s", Unit: "s", Better: "lower", Layer: "analyze", On: onCLI, Moves: "run_s, peak_rss_mb on proday (full path); run_s on fleet through decode (lean path)"},
	{Name: "analyze.ns_per_record", Unit: "ns", Better: "lower", Layer: "analyze", On: onCLI, Moves: "ns_per_record on proday and sweep"},
	{Name: "analyze.allocs_per_record", Unit: "allocs/record", Better: "lower", Layer: "analyze", On: onCLI, Moves: "cpu_s, peak_rss_mb on proday"},
	{Name: "analyze.retained_mb", Unit: "MB", Better: "lower", Layer: "analyze", On: onCLI, Moves: "peak_rss_mb on proday"},
	{Name: "decode.ns_per_record", Unit: "ns", Better: "lower", Layer: "analyze.Decoder", On: onCLI, Moves: "ns_per_record on proday, sweep and fleet"},
	{Name: "reconstruct.ns_per_record", Unit: "ns", Better: "lower", Layer: "analyze reconstruct", On: onCLI, Moves: "ns_per_record on proday, sweep and fleet"},
	{Name: "analyze.events", Unit: "count", Better: "higher", Layer: "analyze", On: onCLI, Moves: "exact count; peak_rss_mb on proday"},
	{Name: "analyze.items", Unit: "count", Better: "higher", Layer: "analyze", On: onCLI, Moves: "exact count; peak_rss_mb on proday"},
	{Name: "analyze.corrupt", Unit: "count", Better: "lower", Layer: "analyze", On: onCLI, Moves: "exact count; failed_ratio on proday and sweep"},
	{Name: "analyze.repaired", Unit: "count", Better: "lower", Layer: "analyze", On: onCLI, Moves: "exact count; failed_ratio on proday and sweep"},

	{Name: "render.summary_ms", Unit: "ms", Better: "lower", Layer: "analyze writers", On: "proday", Moves: "run_s on proday"},
	{Name: "render.pprof_ms", Unit: "ms", Better: "lower", Layer: "export", On: "proday", Moves: "run_s on proday"},
	{Name: "render.pprof_bytes", Unit: "bytes", Better: "lower", Layer: "export", On: "proday", Moves: "run_s on proday"},
	{Name: "render.report_ms", Unit: "ms", Better: "lower", Layer: "sweep/fleet writers", On: "sweep, fleet", Moves: "run_s on sweep and fleet"},

	{Name: "sweep.seed_ms_p50", Unit: "ms", Better: "lower", Layer: "sweep", On: "sweep", Moves: "run_s on sweep"},
	{Name: "sweep.seed_ms_max", Unit: "ms", Better: "lower", Layer: "sweep", On: "sweep", Moves: "run_s on sweep"},
	{Name: "sweep.busy_ratio", Unit: "ratio", Better: "higher", Layer: "sweep", On: "sweep", Moves: "run_s on sweep"},
	{Name: "sweep.merge_ms", Unit: "ms", Better: "lower", Layer: "sweep", On: "sweep", Moves: "run_s on sweep"},

	{Name: "fleet.us_per_segment", Unit: "us", Better: "lower", Layer: "fleet", On: onFleet, Moves: "run_s, ns_per_record on fleet; nothing on proday"},
	{Name: "fleet.emit_ms", Unit: "ms", Better: "lower", Layer: "fleet ingest", On: onFleet, Moves: "run_s, ns_per_record on fleet"},
	{Name: "fleet.backlog_max", Unit: "count", Better: "lower", Layer: "fleet store", On: onFleet, Moves: "run_s on fleet"},
	{Name: "fleet.backlog_full_ratio", Unit: "ratio", Better: "lower", Layer: "fleet store", On: onFleet, Moves: "run_s on fleet"},
	{Name: "fleet.commit_tail_ms", Unit: "ms", Better: "lower", Layer: "fleet projector", On: onFleet, Moves: "run_s on fleet"},
	{Name: "fleet.segments", Unit: "count", Better: "higher", Layer: "fleet", On: onFleet, Moves: "exact count; ns_per_record on fleet"},
	{Name: "fleet.records", Unit: "count", Better: "higher", Layer: "fleet", On: onFleet, Moves: "exact count; ns_per_record on fleet"},
	{Name: "fleet.windows", Unit: "count", Better: "higher", Layer: "fleet", On: onFleet, Moves: "exact count; run_s on fleet"},
	{Name: "fleet.allocs_per_record", Unit: "allocs/record", Better: "lower", Layer: "fleet", On: onFleet, Moves: "cpu_s, ns_per_record on fleet"},

	{Name: "serve.page_p50_ms", Unit: "ms", Better: "lower", Layer: "export status page", On: onServe, Moves: "req_p50_ms on serve; nothing elsewhere"},
	{Name: "serve.status_p50_ms", Unit: "ms", Better: "lower", Layer: "export", On: onServe, Moves: "req_p50_ms, req_p99_ms on serve; nothing elsewhere"},
	{Name: "serve.status_304_p50_ms", Unit: "ms", Better: "lower", Layer: "export cache", On: onServe, Moves: "req_p50_ms on serve; 0 while every conditional request is answered 200"},
	{Name: "serve.timeseries_p50_ms", Unit: "ms", Better: "lower", Layer: "export ring", On: onServe, Moves: "req_p50_ms, req_p99_ms on serve"},
	{Name: "serve.pprof_p50_ms", Unit: "ms", Better: "lower", Layer: "export pprof", On: onServe, Moves: "req_p99_ms on serve"},
	{Name: "serve.trace_p50_ms", Unit: "ms", Better: "lower", Layer: "export trace", On: onServe, Moves: "req_p99_ms on serve"},
	{Name: "serve.not_modified_ratio", Unit: "ratio", Better: "higher", Layer: "export cache", On: onServe, Moves: "req_p50_ms on serve; near 0 on a live feed, whose status changes every virtual millisecond while each poller revalidates a tag a second old"},
	{Name: "serve.publish_us_p50", Unit: "us", Better: "lower", Layer: "export hooks", On: onServe, Moves: "req_p99_ms, failed_ratio on serve"},
	{Name: "serve.sse_lag_p99_ms", Unit: "ms", Better: "lower", Layer: "export hub", On: onServe, Moves: "failed_ratio on serve"},
	{Name: "serve.sse_dropped", Unit: "count", Better: "lower", Layer: "export hub", On: onServe, Moves: "failed_ratio on serve"},
	{Name: "serve.gen_lag_p99_ms", Unit: "ms", Better: "lower", Layer: "benchmark generator", On: onServe, Moves: "req_p99_ms on serve"},
	{Name: "serve.allocs_per_request", Unit: "allocs/request", Better: "lower", Layer: "export", On: onServe, Moves: "cpu_s, req_p99_ms on serve"},
	{Name: "serve.requests", Unit: "count", Better: "higher", Layer: "benchmark generator", On: onServe, Moves: "sample count behind req_p50_ms and req_p99_ms"},

	{Name: "req_p99_ms", Unit: "ms", Better: "lower", Layer: "end-to-end tail", On: onAll, Moves: "nearest-rank 99th percentile of the req_p50_ms samples, from the run's untraced part; ungated, because its spread between runs on a shared 2-core host exceeds any allowed bound"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Layer: "all", On: onAll, Moves: "failed operations over attempted ones, on every workload"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "benchmark tracer", On: onAll, Moves: "traced over untraced median, minus 1: proday, sweep and fleet the root span against the same calls made with no tracer; serve the request latency"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Layer: "benchmark tracer", On: onAll, Moves: "spans recorded in the traced run"},
}

// writeCatalogue prints every metric with its unit, layer, workloads and
// what it should move.
func writeCatalogue(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "METRIC\tUNIT\tBETTER\tBOUND\tLAYER\tWORKLOADS\tSHOULD MOVE")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%s\t%s\t-\n", m.Name, m.Unit, m.Better, m.Bound, m.Layer, m.On)
	}
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t-\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, m.Layer, m.On, m.Moves)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "WORKLOAD\tWHY")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%s\n", wl.name, wl.why)
	}
	return tw.Flush()
}

// describeWorkloads renders "name: why" lines for the usage message.
func describeWorkloads() string {
	var b strings.Builder
	for _, wl := range workloads {
		fmt.Fprintf(&b, "  %-7s %s\n", wl.name, wl.why)
	}
	return b.String()
}
