package atmem

// This file wires the live metrics registry (internal/metrics) into the
// runtime's lifecycle, the way telemetry.go wires the trace recorder: a
// metricsSet of pre-registered instruments recorded at phase, optimize,
// and epoch boundaries (never on the simulated-access hot path), and the
// per-epoch placement-quality scorecards derived from the same numbers
// the MigrationReport carries — bit-exactly, which the reconciliation
// test enforces. Everything is nil-safe: with Options.Metrics and
// Options.DebugAddr unset each record point costs one pointer test.
//
// Shard discipline (see internal/metrics): counter shard 0 is the
// runtime's control plane, shard 1 the background placement worker —
// the same single-writer split as the telemetry tracks.

import (
	"atmem/internal/memsim"
	"atmem/internal/metrics"
)

// metricsShards is the counter shard count a runtime needs: control
// plane + background placement worker.
const metricsShards = 2

// NewMetricsRegistry returns a metrics registry sized for one runtime
// (control-plane and background-placement counter shards). Pass it to
// WithMetrics; scrape it via Registry.WritePrometheus or the debug
// listener's /metrics endpoint.
func NewMetricsRegistry() *metrics.Registry { return metrics.New(metricsShards) }

// metricsSet holds the runtime's pre-registered instruments so record
// points never take the registry's registration lock. A nil *metricsSet
// (metrics off) makes every record method a single branch.
type metricsSet struct {
	reg *metrics.Registry

	// Phase-boundary instruments (RunPhase, shard = caller).
	phases            *metrics.Counter
	tierRead          [memsim.NumTiers]*metrics.Counter
	tierWrite         [memsim.NumTiers]*metrics.Counter
	tierWriteback     [memsim.NumTiers]*metrics.Counter
	tierMapped        [memsim.NumTiers]*metrics.Gauge
	tierReserved      [memsim.NumTiers]*metrics.Gauge
	shootdownsApplied *metrics.Counter
	phaseNS           *metrics.Histogram

	// Optimize-boundary instruments.
	analyzeNS       *metrics.Histogram
	migrateNS       *metrics.Histogram
	movedBytes      *metrics.Counter
	promotedBytes   *metrics.Counter
	demotedBytes    *metrics.Counter
	pagesMoved      *metrics.Counter
	hugeSplits      *metrics.Counter
	tlbShootdowns   *metrics.Counter
	regionsMigrated *metrics.Counter
	regionsRetried  *metrics.Counter
	regionsSkipped  *metrics.Counter
	breakerState    *metrics.Gauge
	residentBytes   *metrics.Gauge

	// Health instruments. The counters are fed by delta against the
	// cumulative HealthReport (lastHealth below); place and the epoch
	// loop never run concurrently with each other, so the delta
	// bookkeeping needs no lock.
	quarantinedBytes *metrics.Gauge
	scrubbedBytes    *metrics.Counter
	crcDetected      *metrics.Counter
	crcRepaired      *metrics.Counter
	emergDemotions   *metrics.Counter
	promosVetoed     *metrics.Counter
	lastHealth       HealthReport

	// Epoch-boundary instruments (control plane only).
	epochs         *metrics.Counter
	epochsSkipped  *metrics.Counter
	samples        *metrics.Counter
	epochNS        *metrics.Histogram
	scoreEpoch     *metrics.Gauge
	scoreFastShare *metrics.Gauge
	scoreResidEff  *metrics.Gauge
	scoreMigEff    *metrics.Gauge
	scoreOverhead  *metrics.Gauge
}

// newMetricsSet registers the runtime's instrument families on reg (nil
// reg → nil set, metrics off). A non-empty tenant name is merged into
// every family's labels, so tenant runtimes sharing one registry (the
// broker serving setup) expose distinguishable series from a single
// /metrics endpoint.
func newMetricsSet(reg *metrics.Registry, tenant string) *metricsSet {
	if reg == nil {
		return nil
	}
	lbl := func(extra metrics.Labels) metrics.Labels {
		if tenant == "" {
			return extra
		}
		out := metrics.Labels{"tenant": tenant}
		for k, v := range extra {
			out[k] = v
		}
		return out
	}
	m := &metricsSet{reg: reg}
	m.phases = reg.Counter("atmem_phases_total", "Kernel phases run.", lbl(nil))
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		tl := lbl(metrics.Labels{"tier": t.String()})
		m.tierRead[t] = reg.Counter("atmem_tier_read_bytes_total", "Bytes read from the tier by kernel phases.", tl)
		m.tierWrite[t] = reg.Counter("atmem_tier_write_bytes_total", "Bytes written to the tier by kernel phases.", tl)
		m.tierWriteback[t] = reg.Counter("atmem_tier_writeback_bytes_total", "Cache writeback bytes to the tier.", tl)
		m.tierMapped[t] = reg.Gauge("atmem_tier_mapped_bytes", "Mapped bytes on the tier.", tl)
		m.tierReserved[t] = reg.Gauge("atmem_tier_reserved_bytes", "Staging-reserved bytes on the tier.", tl)
	}
	m.shootdownsApplied = reg.Counter("atmem_tlb_shootdowns_applied_total", "Published TLB shootdowns applied by accessors.", lbl(nil))
	m.phaseNS = reg.Histogram("atmem_phase_duration_ns", "Simulated wall time per kernel phase (ns).", lbl(nil))

	m.analyzeNS = reg.Histogram("atmem_optimize_analyze_ns", "Host wall time of the two-stage analyzer per Optimize (ns; analysis has no modelled cost).", lbl(nil))
	m.migrateNS = reg.Histogram("atmem_optimize_migrate_ns", "Modelled migration time per Optimize (ns).", lbl(nil))
	m.movedBytes = reg.Counter("atmem_migration_moved_bytes_total", "Bytes that changed tier.", lbl(nil))
	m.promotedBytes = reg.Counter("atmem_migration_promoted_bytes_total", "Bytes promoted to the fast tier (governed runs).", lbl(nil))
	m.demotedBytes = reg.Counter("atmem_migration_demoted_bytes_total", "Bytes demoted to the large tier (governed runs).", lbl(nil))
	m.pagesMoved = reg.Counter("atmem_migration_pages_moved_total", "4 KiB pages migrated.", lbl(nil))
	m.hugeSplits = reg.Counter("atmem_migration_huge_pages_split_total", "2 MiB mappings splintered by migration.", lbl(nil))
	m.tlbShootdowns = reg.Counter("atmem_migration_tlb_shootdowns_total", "Modelled shootdown IPIs issued by migration.", lbl(nil))
	m.regionsMigrated = reg.Counter("atmem_migration_regions_migrated_total", "Regions migrated on the first try.", lbl(nil))
	m.regionsRetried = reg.Counter("atmem_migration_regions_retried_total", "Regions that needed the degradation ladder.", lbl(nil))
	m.regionsSkipped = reg.Counter("atmem_migration_regions_skipped_total", "Regions left on their original tier.", lbl(nil))
	m.breakerState = reg.Gauge("atmem_governor_breaker_state", "Circuit breaker state (0 closed, 1 open, 2 half-open).", lbl(nil))
	m.residentBytes = reg.Gauge("atmem_governor_resident_bytes", "Fast-resident bytes the governor tracks.", lbl(nil))

	m.quarantinedBytes = reg.Gauge("atmem_health_quarantined_bytes", "Fast-tier capacity retired into the quarantine ledger.", lbl(nil))
	m.scrubbedBytes = reg.Counter("atmem_health_scrubbed_bytes_total", "Bytes the CRC scrubber verified.", lbl(nil))
	m.crcDetected = reg.Counter("atmem_health_corruptions_detected_total", "Scrubber CRC mismatches.", lbl(nil))
	m.crcRepaired = reg.Counter("atmem_health_corruptions_repaired_total", "Corruptions repaired from the scrub backup.", lbl(nil))
	m.emergDemotions = reg.Counter("atmem_health_emergency_demotions_total", "Chunks demoted off failing fast pages.", lbl(nil))
	m.promosVetoed = reg.Counter("atmem_health_promotions_vetoed_total", "Promotion regions dropped by the health veto.", lbl(nil))

	m.epochs = reg.Counter("atmem_epochs_total", "Governed epochs completed.", lbl(nil))
	m.epochsSkipped = reg.Counter("atmem_epochs_breaker_skipped_total", "Epochs the open breaker skipped migration for.", lbl(nil))
	m.samples = reg.Counter("atmem_profiler_samples_total", "Profiler samples attributed to registered objects.", lbl(nil))
	m.epochNS = reg.Histogram("atmem_epoch_duration_ns", "Simulated time per governed epoch: phases plus charged migration (ns).", lbl(nil))
	m.scoreEpoch = reg.Gauge("atmem_scorecard_epoch", "Epoch the scorecard gauges describe.", lbl(nil))
	m.scoreFastShare = reg.Gauge("atmem_scorecard_fast_access_share", "Fraction of phase traffic served by the fast tier.", lbl(nil))
	m.scoreResidEff = reg.Gauge("atmem_scorecard_fast_residency_efficiency", "Fast bytes touched per fast-resident byte.", lbl(nil))
	m.scoreMigEff = reg.Gauge("atmem_scorecard_migration_efficiency", "Fast bytes touched per byte moved this epoch.", lbl(nil))
	m.scoreOverhead = reg.Gauge("atmem_scorecard_overhead_tax", "(scrub + profiling overhead) / phase seconds.", lbl(nil))
	return m
}

// Metrics returns the registry the runtime records into (nil when
// metrics are off).
func (r *Runtime) Metrics() *metrics.Registry {
	if r.met == nil {
		return nil
	}
	return r.met.reg
}

// metShard maps a telemetry track id onto the counter shard writing it:
// the background placement worker's track gets shard 1, everything else
// the control-plane shard 0.
func (r *Runtime) metShard(tid int) int {
	if tid == r.placeTID {
		return 1
	}
	return 0
}

// recordPhaseMetrics records one finished phase: per-tier traffic,
// occupancy, applied shootdowns, and the phase latency histogram.
// RunPhase (control plane) is the only caller.
func (r *Runtime) recordPhaseMetrics(pr *PhaseResult) {
	m := r.met
	if m == nil {
		return
	}
	m.phases.Inc(0)
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		m.tierRead[t].Add(0, pr.Stats.ReadBytes[t])
		m.tierWrite[t].Add(0, pr.Stats.WriteBytes[t])
		m.tierWriteback[t].Add(0, pr.Stats.WritebackBytes[t])
		mapped, reserved := r.sys.TierUsage(t)
		m.tierMapped[t].SetUint(mapped)
		m.tierReserved[t].SetUint(reserved)
	}
	m.shootdownsApplied.Add(0, pr.Stats.ShootdownsApplied)
	m.phaseNS.ObserveSeconds(pr.Stats.WallSeconds)
}

// recordOptimizeMetrics records one finished Optimize from r.migStats,
// r.gov, and the health report; analyzeNS is the analyzer's host wall
// time (0 when no analysis ran). The caller's track id selects the
// counter shard, keeping the single-writer discipline when the governed
// Optimize runs on the background placement worker.
func (r *Runtime) recordOptimizeMetrics(tid int, analyzeNS uint64) {
	m := r.met
	if m == nil {
		return
	}
	shard := r.metShard(tid)
	if analyzeNS > 0 {
		m.analyzeNS.Observe(analyzeNS)
	}
	if st := r.migStats; st != nil {
		m.migrateNS.ObserveSeconds(st.Seconds)
		m.movedBytes.Add(shard, st.BytesMoved)
		m.pagesMoved.Add(shard, uint64(st.PagesMoved))
		m.hugeSplits.Add(shard, uint64(st.HugePagesSplit))
		m.tlbShootdowns.Add(shard, uint64(st.TLBShootdowns))
		m.regionsMigrated.Add(shard, uint64(st.RegionsMigrated))
		m.regionsRetried.Add(shard, uint64(st.RegionsRetried))
		m.regionsSkipped.Add(shard, uint64(st.RegionsSkipped))
	}
	if gi := r.gov; gi != nil {
		m.promotedBytes.Add(shard, gi.promotedBytes)
		m.demotedBytes.Add(shard, gi.demotedBytes)
		m.breakerState.Set(float64(int(gi.state)))
		m.residentBytes.SetUint(gi.residentBytes)
	}
	h := r.healthReport()
	m.quarantinedBytes.SetUint(h.QuarantinedBytes)
	m.scrubbedBytes.Add(shard, h.ScrubbedBytes-m.lastHealth.ScrubbedBytes)
	m.crcDetected.Add(shard, uint64(h.CorruptionsDetected-m.lastHealth.CorruptionsDetected))
	m.crcRepaired.Add(shard, uint64(h.CorruptionsRepaired-m.lastHealth.CorruptionsRepaired))
	m.emergDemotions.Add(shard, uint64(h.EmergencyDemotions-m.lastHealth.EmergencyDemotions))
	m.promosVetoed.Add(shard, uint64(h.PromotionsVetoed-m.lastHealth.PromotionsVetoed))
	m.lastHealth = h
}

// Scorecard is the per-epoch placement-quality summary a governed epoch
// derives at its boundary: how much of the interval's traffic the fast
// tier actually served, how hard the resident footprint worked, what
// the migration spend bought, and what the adaptive machinery itself
// cost. Byte fields reconcile bit-exactly with the epoch's
// MigrationReport and PhaseResults (enforced by test).
type Scorecard struct {
	// Epoch is the 1-based governed epoch number.
	Epoch int `json:"epoch"`
	// PhaseSeconds is the summed simulated wall time of the epoch's
	// phases.
	PhaseSeconds float64 `json:"phase_seconds"`
	// FastBytesTouched / TotalBytesTouched are the epoch phases'
	// read+write+writeback traffic on the fast tier / on all tiers.
	FastBytesTouched  uint64 `json:"fast_bytes_touched"`
	TotalBytesTouched uint64 `json:"total_bytes_touched"`
	// FastAccessShare = FastBytesTouched / TotalBytesTouched.
	FastAccessShare float64 `json:"fast_access_share"`
	// ResidentBytes is the governor's fast-resident footprint after the
	// epoch (MigrationReport.ResidentBytes).
	ResidentBytes uint64 `json:"resident_bytes"`
	// FastResidencyEfficiency = FastBytesTouched / ResidentBytes: how
	// many times over the epoch's traffic re-earned the resident bytes.
	FastResidencyEfficiency float64 `json:"fast_residency_efficiency"`
	// PromotedBytes / DemotedBytes / MovedBytes mirror the epoch's
	// MigrationReport.
	PromotedBytes uint64 `json:"promoted_bytes"`
	DemotedBytes  uint64 `json:"demoted_bytes"`
	MovedBytes    uint64 `json:"moved_bytes"`
	// MigrationSeconds is the epoch's modelled migration time
	// (MigrationReport.Seconds).
	MigrationSeconds float64 `json:"migration_seconds"`
	// MigrationEfficiency = FastBytesTouched / MovedBytes (0 when
	// nothing moved): fast traffic bought per byte of migration spend.
	MigrationEfficiency float64 `json:"migration_efficiency"`
	// ScrubSeconds is the simulated time this epoch's CRC scrub charged.
	ScrubSeconds float64 `json:"scrub_seconds"`
	// ProfilingOverheadSeconds models the sample-capture cost: captured
	// samples x SampleOverheadNS.
	ProfilingOverheadSeconds float64 `json:"profiling_overhead_seconds"`
	// OverheadTax = (ScrubSeconds + ProfilingOverheadSeconds) /
	// PhaseSeconds: the adaptive machinery's cut of the epoch.
	OverheadTax float64 `json:"overhead_tax"`
	// Breaker is the circuit breaker's state after the epoch.
	Breaker string `json:"breaker"`
}

// Scorecards returns every per-epoch scorecard computed so far (empty
// on an ungoverned runtime). Scorecards are computed on every governed
// epoch regardless of whether a metrics registry is attached.
func (r *Runtime) Scorecards() []Scorecard { return r.scorecards }

// LastScorecard returns the most recent epoch's scorecard (nil before
// the first governed epoch). Safe from any goroutine — the debug
// listener's /epochz endpoint reads it mid-run.
func (r *Runtime) LastScorecard() *Scorecard { return r.lastScore.Load() }

// finishEpochScorecard derives the epoch's scorecard at its boundary
// (control plane, after the migration/health passes settled), publishes
// it to the scorecard gauges and the atomic latest-scorecard slot, and
// hands it to the configured sink.
func (r *Runtime) finishEpochScorecard(rep *EpochReport, scrubStartNS uint64) {
	sc := Scorecard{Epoch: rep.Epoch}
	for i := range rep.Phases {
		st := &rep.Phases[i].Stats
		sc.PhaseSeconds += st.WallSeconds
		for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
			n := st.ReadBytes[t] + st.WriteBytes[t] + st.WritebackBytes[t]
			sc.TotalBytesTouched += n
			if t == memsim.TierFast {
				sc.FastBytesTouched += n
			}
		}
	}
	if sc.TotalBytesTouched > 0 {
		sc.FastAccessShare = float64(sc.FastBytesTouched) / float64(sc.TotalBytesTouched)
	}
	if rep.Optimized {
		sc.ResidentBytes = rep.Migration.ResidentBytes
		sc.PromotedBytes = rep.Migration.PromotedBytes
		sc.DemotedBytes = rep.Migration.DemotedBytes
		sc.MovedBytes = rep.Migration.BytesMoved
		sc.MigrationSeconds = rep.Migration.Seconds
		sc.Breaker = rep.Migration.Breaker
	} else {
		// A zero-sample epoch ran no Optimize: placement is unchanged,
		// so report the standing residency and breaker state.
		sc.ResidentBytes = r.ResidentBytes()
		sc.Breaker = r.BreakerState().String()
	}
	if sc.ResidentBytes > 0 {
		sc.FastResidencyEfficiency = float64(sc.FastBytesTouched) / float64(sc.ResidentBytes)
	}
	if sc.MovedBytes > 0 {
		sc.MigrationEfficiency = float64(sc.FastBytesTouched) / float64(sc.MovedBytes)
	}
	sc.ScrubSeconds = float64(r.scrubChargedNS-scrubStartNS) / 1e9
	sc.ProfilingOverheadSeconds = float64(r.prof.SampleCount()) * r.opts.SampleOverheadNS / 1e9
	if sc.PhaseSeconds > 0 {
		sc.OverheadTax = (sc.ScrubSeconds + sc.ProfilingOverheadSeconds) / sc.PhaseSeconds
	}

	r.scorecards = append(r.scorecards, sc)
	r.lastScore.Store(&sc)
	if m := r.met; m != nil {
		m.epochs.Inc(0)
		if rep.Migration.BreakerSkipped {
			m.epochsSkipped.Inc(0)
		}
		m.samples.Add(0, uint64(rep.Samples))
		m.epochNS.ObserveSeconds(sc.PhaseSeconds + sc.MigrationSeconds + sc.ScrubSeconds)
		m.scoreEpoch.SetUint(uint64(sc.Epoch))
		m.scoreFastShare.Set(sc.FastAccessShare)
		m.scoreResidEff.Set(sc.FastResidencyEfficiency)
		m.scoreMigEff.Set(sc.MigrationEfficiency)
		m.scoreOverhead.Set(sc.OverheadTax)
	}
	if r.opts.ScorecardSink != nil {
		r.opts.ScorecardSink(sc)
	}
	// Feed the broker's arbiter on a tenant runtime (see broker.go).
	r.reportTenantSignal(&sc)
}
