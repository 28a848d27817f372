package main

// metricSpec names one reported metric and its unit. The two tables
// below must match BENCHMARK.json; TestMetricTablesMatchBenchmarkJSON
// checks it.
type metricSpec struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload. The
// names are shared across workloads; README.md gives each workload's
// reading of them.
// They are costs rather than wall-clock rates wherever the two differ:
// on a shared host, wall time also counts the time the hypervisor gives
// the CPU to other tenants. The wall-clock figures are per-layer.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"cpu_us_per_req", "us"},
	{"p50_us", "us"},
	{"max_rss_mb", "MB"},
}

// perLayer is what a traced run reports, on every workload. A metric
// a workload cannot exercise reads 0 there.
var perLayer = append([]metricSpec{
	{"wall.req_per_s", "req/s"},
	{"wall.p90_us", "us"},
	{"fail_frac", "ratio"},
	{"simnet.events_per_req", "count"},
	{"simnet.ns_per_event", "ns"},
	{"simcluster.ns_per_req", "ns"},
	{"dataplane.ns_per_pkt", "ns"},
	{"dataplane.clone_frac", "ratio"},
	{"dataplane.filter_drop_frac", "ratio"},
	{"dataplane.redundant_frac", "ratio"},
	{"dataplane.wasted_service_frac", "ratio"},
	{"congestion.port_arrivals_per_req", "count"},
	{"congestion.mark_frac", "ratio"},
	{"congestion.drop_frac", "ratio"},
	{"scenario.build_s", "s"},
	{"runtime.gc_frac", "ratio"},
	{"runtime.sched_frac", "ratio"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"udpemu.syscall_frac", "ratio"},
	{"udpemu.datagrams_per_req", "count"},
	{"udpemu.clone_drop_frac", "ratio"},
	{"udpemu.kernel_drop_frac", "ratio"},
	{"udpemu.send_errors", "count"},
	{"emu.paced_p50_us", "us"},
	{"emu.paced_p90_us", "us"},
	{"emu.paced_p99_us", "us"},
	{"emu.paced_cpu_us_per_req", "us"},
	{"wire.ns_per_hdr", "ns"},
	{"gen.lag_p50_us", "us"},
	{"gen.lag_max_us", "us"},
	{"gen.offered_vs_target", "ratio"},
	{"gen.retry_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}, selfFracSpecs()...)

// selfFracSpecs gives every module a "<module>.self_frac" metric: its
// share of the traced run's CPU profile, by leaf frame.
func selfFracSpecs() []metricSpec {
	out := make([]metricSpec, len(modules))
	for i, m := range modules {
		out[i] = metricSpec{m + ".self_frac", "ratio"}
	}
	return out
}
