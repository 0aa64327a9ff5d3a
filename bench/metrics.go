package main

// metricDef names one metric with its unit. BENCHMARK.json carries the same
// names, units, directions and (for end-to-end metrics) bounds; the package
// test asserts the two lists agree exactly.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with tracing
// off (--trace 0). Every workload reports every one of them.
var endToEnd = []metricDef{
	{"cases_per_s", "cases/s"},
	{"detect_s", "s"},
	{"cpu_us_per_case", "us"},
	{"allocs_per_case", "allocs"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics of the traced run (--trace 1), in
// the order of the layers a case crosses. A metric that does not apply to a
// workload reads 0 there.
var perLayer = []metricDef{
	{"trace_overhead_pct", "%"},

	{"isa.generate_ns_per_prog", "ns"},
	{"isa.lower_ns_per_prog", "ns"},
	{"isa.uops_per_prog", "count"},

	{"generator.input_ns_per_input", "ns"},
	{"generator.mutate_ns_per_mutant", "ns"},
	{"generator.reject_ratio", "ratio"},

	{"contract.newmodel_ns_per_prog", "ns"},
	{"contract.collect_ns_per_input", "ns"},
	{"contract.obs_per_trace", "count"},
	{"contract.classes_per_prog", "count"},
	{"contract.truncations", "count"},

	{"mem.prime_ns_per_case", "ns"},
	{"mem.snapshot_ns_per_case", "ns"},
	{"mem.l1d_miss_ratio", "ratio"},

	{"uarch.run_ns_per_case", "ns"},
	{"uarch.cycles_per_case", "count"},
	{"uarch.host_ns_per_cycle", "ns"},
	{"uarch.committed_per_case", "count"},
	{"uarch.squashed_per_case", "count"},
	{"uarch.mispredicts_per_case", "count"},
	{"uarch.save_restore_ns", "ns"},
	{"uarch.coverage_features", "count"},

	{"executor.boot_ns", "ns"},
	{"executor.load_program_ns_per_prog", "ns"},
	{"executor.run_ns_per_case", "ns"},
	{"executor.validation_pair_ns", "ns"},
	{"executor.startup_share_pct", "%"},
	{"executor.prime_share_pct", "%"},
	{"executor.simulate_share_pct", "%"},
	{"executor.extract_share_pct", "%"},
	{"executor.digest_share_pct", "%"},

	{"fuzzer.case_ns_per_prog", "ns"},
	{"fuzzer.execute_case_ns_per_prog", "ns"},
	{"fuzzer.compare_self_ns_per_case", "ns"},
	{"fuzzer.validation_runs_per_kcase", "count"},
	{"fuzzer.violations_per_kcase", "count"},
	{"fuzzer.unattributed_pct", "%"},

	{"engine.unit_ms_p50", "ms"},
	{"engine.unit_ms_p99", "ms"},
	{"engine.sched_overhead_pct", "%"},
	{"engine.cases_per_s_w1", "cases/s"},
	{"engine.w2_speedup", "ratio"},
	{"engine.fold_ms", "ms"},
	{"engine.wasted_units_pct", "%"},

	{"checkpoint.save_ms_p50", "ms"},
	{"checkpoint.save_ms_max", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.encode_result_ns_per_unit", "ns"},
	{"checkpoint.share_pct", "%"},
	{"checkpoint.resume_s", "s"},

	{"dist.rpcs_per_unit", "count"},
	{"dist.wire_bytes_per_unit", "bytes"},
	{"dist.lease_rtt_us_p50", "us"},
	{"dist.lease_rtt_us_p99", "us"},
	{"dist.submit_rtt_us_p50", "us"},
	{"dist.submit_rtt_us_p99", "us"},
	{"dist.seal_unseal_ns_per_msg", "ns"},
	{"dist.tail_s", "s"},
	{"dist.overhead_pct", "%"},
	{"dist.worker_balance", "ratio"},
	{"dist.retries", "count"},
	{"dist.evictions", "count"},
	{"dist.duplicates", "count"},
}

// metricValue is one reported number, in the result line's format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value. newMetricSet pre-fills every metric
// of defs with 0 so a workload that skips a layer still reports the full
// list.
type metricSet map[string]metricValue

func newMetricSet(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Unit: d.unit}
	}
	return m
}

// set stores v under name; the name must be one of the set's predeclared
// metrics (a typo in a metric name is a bug, not a new metric).
func (m metricSet) set(name string, v float64) {
	mv, ok := m[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	mv.Value = v
	m[name] = mv
}
