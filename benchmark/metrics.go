package main

// metricDef declares one metric: BENCHMARK.json lists exactly these, and
// every run emits each of them once.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the baseline median an end-to-end metric may
	// worsen by before it counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the system sees, all host-side.
// fail_ratio has an absolute bound of zero: any increase is a regression.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
}

const failRatio = "fail_ratio"

// perLayer lists the per-layer metrics in the order they are printed.
// Probe metrics are measured on every traced run; scenario metrics read 0
// on a workload whose scenario does not exercise them.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better})
		}
	}
	for _, tier := range tiers {
		for _, shape := range programs[:numShapes] {
			add("MIPS", "higher", "sim."+tier+"."+shape.name+".mips")
		}
	}
	for _, shape := range programs[:numShapes] {
		add("count", "lower", "sim.instrs."+shape.name)
	}
	for _, shape := range programs[:numShapes] {
		add("count", "lower", "rtlsim.cycles."+shape.name)
	}
	add("ms", "lower", "rtlsim.new_ms")
	add("s", "lower", "fsrun.run_s")
	add("ms", "lower", "install.install_ms", "runtest.verify_ms", "core.boot_job_ms", "spec.load_ms")
	add("s", "lower", "core.build_cold_s", "core.build_noop_s", "core.build_leaf_edit_s",
		"core.build_chain_edit_s", "core.build_warm_restore_s", "core.build_remote_hit_s")
	add("count", "lower", "dag.executed_cold", "dag.executed_noop", "dag.executed_leaf_edit")
	add("count", "higher", "dag.restored_warm")
	add("MB/s", "higher", "cas.publish_mb_s", "cas.restore_mb_s")
	add("1/s", "higher", "cas.put_small_ops_s")
	add("B", "lower", "cas.bytes_published", "cas.bytes_restored")
	add("ratio", "higher", "cas.action_hit_ratio")
	add("MB/s", "higher", "cas_remote.get_mb_s", "cas_remote.put_mb_s")
	add("us", "lower", "cas_remote.action_rtt_us_p50")
	add("count", "lower", "cas_remote.retries")
	add("us", "lower", "launcher.dispatch_us")
	add("ms", "lower", "launcher.job_wall_ms_p50", "launcher.queue_wait_ms_p50")
	add("count", "lower", "launcher.attempts", "launcher.retries")
	add("ms", "lower", "launcher_remote.job_overhead_ms")
	add("count", "lower", "launcher_remote.leases", "launcher_remote.steals", "launcher_remote.lease_expiries")
	add("ms", "lower", "checkpoint.capture_ms_p50", "checkpoint.restore_ms")
	add("count", "lower", "checkpoint.snapshots")
	add("B", "lower", "checkpoint.bytes_per_snapshot")
	add("s", "lower", "ckpt_resume.interrupted_s", "ckpt_resume.resumed_s")
	add("count", "lower", "ckpt_resume.rework_instrs")
	for _, layer := range selfLayers {
		add("s", "lower", "self."+layer+"_s")
	}
	add("MiB", "lower", "host.peak_rss_mb")
	add("ratio", "lower", "bench.trace_overhead_ratio")
	add("ratio", "higher", "bench.attributed_ratio")
	return defs
}

// selfLayers are the layers whose span self time the traced run reports.
var selfLayers = []string{"core", "launcher", "launcher_remote", "sim", "rtlsim", "fsrun", "install", "runtest", layerBench}
