package main

import "regexp"

// Metric declares one reported metric. BENCHMARK.json carries the same
// name, unit and direction (checked by TestCatalogMatchesBenchmarkJSON);
// Target records, for a per-layer metric, which end-to-end metric it
// should move and on which workload.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Target string
}

// metricName is the pattern every metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload with tracing off. All are host-clock metrics except
// sim_s, which is simulated. Per-round metrics divide by the workload's
// round: one oneshot pass, one hotshift epoch, one tenants round.
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower"},
	{Name: "sim_maccess_per_s", Unit: "M/s", Better: "higher"},
	{Name: "epoch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "epoch_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "place_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "place_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "sim_s", Unit: "s", Better: "lower"},
}

// perLayer are the traced run's metrics, grouped by module. Additive
// counts and volumes are per round; *_ms timings of a placement stage
// are per placement decision.
var perLayer = []Metric{
	{"graph.generate_s", "s", "lower", "setup_s on every workload"},
	{"graph.derive_s", "s", "lower", "setup_s on every workload"},

	{"apps.setup_s", "s", "lower", "setup_s on every workload"},
	{"apps.validate_s", "s", "lower", "wall_s on oneshot"},
	{"apps.bfs.iter_ms", "ms", "lower", "wall_s and sim_maccess_per_s on oneshot"},
	{"apps.sssp.iter_ms", "ms", "lower", "wall_s and sim_maccess_per_s on oneshot"},
	{"apps.pr.iter_ms", "ms", "lower", "wall_s and sim_maccess_per_s on oneshot"},
	{"apps.bc.iter_ms", "ms", "lower", "wall_s and sim_maccess_per_s on oneshot"},
	{"apps.cc.iter_ms", "ms", "lower", "wall_s and sim_maccess_per_s on oneshot"},
	{"apps.sim_speedup", "x", "higher", "the paper's result; sim_s on oneshot"},

	{"memsim.host_ns_per_access", "ns", "lower", "sim_maccess_per_s and wall_s on oneshot; epoch_ms_* on tenants"},
	{"memsim.accesses", "count", "lower", "sim_s"},
	{"memsim.llc_miss_ratio", "ratio", "lower", "sim_s"},
	{"memsim.tlb_misses", "count", "lower", "sim_s"},
	{"memsim.seqlock_retries", "count", "lower", "sim_s and epoch_ms_* on tenants"},
	{"memsim.quiesce_stalls", "count", "lower", "sim_s and epoch_ms_* on tenants"},
	{"memsim.shootdowns_applied", "count", "lower", "sim_s and epoch_ms_* on tenants"},

	{"pebs.samples", "count", "lower", "place_ms_* on every workload"},
	{"pebs.overhead_ratio", "ratio", "lower", "wall_s on oneshot"},

	{"core.attribute_ms", "ms", "lower", "place_ms_p50 on oneshot"},
	{"core.analyze_ms", "ms", "lower", "place_ms_* on hotshift"},
	{"core.rank_ms", "ms", "lower", "place_ms_* on hotshift"},
	{"core.threshold_ms", "ms", "lower", "place_ms_* on hotshift"},
	{"core.promote_ms", "ms", "lower", "place_ms_* on hotshift"},
	{"core.clip_ms", "ms", "lower", "place_ms_* on hotshift"},

	{"migrate.host_ms", "ms", "lower", "place_ms_* on hotshift"},
	{"migrate.mib", "MiB", "lower", "sim_s"},
	{"migrate.sim_ms", "ms", "lower", "sim_s"},
	{"migrate.regions", "count", "lower", "sim_s"},
	{"migrate.retried", "count", "lower", "sim_s"},
	{"migrate.skipped", "count", "lower", "sim_s"},

	{"governor.promoted_mib", "MiB", "lower", "place_ms_* and sim_s on hotshift"},
	{"governor.demoted_mib", "MiB", "lower", "place_ms_* and sim_s on hotshift"},
	{"governor.pressure_mib", "MiB", "lower", "place_ms_* and sim_s on hotshift"},
	{"governor.converged_epochs", "count", "higher", "place_ms_* and sim_s on hotshift"},
	{"governor.breaker_opens", "count", "lower", "place_ms_* and sim_s on hotshift"},
	{"governor.fast_share", "ratio", "higher", "sim_s on every workload"},

	{"atmem.epoch_self_ms", "ms", "lower", "place_ms_* on hotshift"},
	{"health.scrubbed_mib", "MiB", "lower", "place_ms_* on hotshift"},
	{"health.detections", "count", "lower", "must stay 0"},

	{"broker.rebalance_us", "us", "lower", "epoch_ms_* on tenants"},
	{"broker.admit_us", "us", "lower", "setup_s on tenants"},
	{"broker.share_mib", "MiB", "higher", "fast_share on tenants"},
	{"broker.shed_events", "count", "lower", "epoch_ms_* on tenants"},

	{"metrics.scrape_ms", "ms", "lower", "epoch_ms_* on tenants"},

	{"telemetry.overhead_ratio", "ratio", "lower", "none: tracing is off for end-to-end runs"},
	{"telemetry.events", "count", "lower", "none: tracing is off for end-to-end runs"},
	{"telemetry.export_ms", "ms", "lower", "none: tracing is off for end-to-end runs"},
}

// unitOf returns the declared unit of a metric name ("" if unknown).
func unitOf(name string) string {
	for _, set := range [][]Metric{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
