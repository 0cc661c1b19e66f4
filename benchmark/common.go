package main

import (
	"io"
	"strings"
	"syscall"
	"time"

	"atmem"
	"atmem/internal/memsim"
	"atmem/internal/telemetry"
)

// setupReps is how many times each workload sets up per run; setup_s
// is the median.
const setupReps = 5

// mib is one binary megabyte in bytes, as a float for ratios.
const mib = float64(1 << 20)

// timed runs fn inside a span named name under parent and returns the
// host time fn took. fn receives the span id for its own children.
func timed(tr *Tracer, name string, parent int, fn func(id int)) time.Duration {
	id := tr.Begin(name, parent)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	tr.End(id)
	return d
}

// cpuNow is the process's host user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mib // Linux reports KiB
}

// meter accumulates host wall and CPU time over the measured segments
// of a run, excluding set-up and checks in between.
type meter struct {
	wall, cpu time.Duration
	startW    time.Time
	startC    time.Duration
	running   bool
}

func (m *meter) start() {
	m.startW, m.startC, m.running = time.Now(), cpuNow(), true
}

func (m *meter) stop() {
	if m.running {
		m.wall += time.Since(m.startW)
		m.cpu += cpuNow() - m.startC
		m.running = false
	}
}

// simCounts sums the simulator's phase statistics.
type simCounts struct {
	Accesses, L1Hits, LLCHits, LLCMisses, TLBMisses  uint64
	SeqlockRetries, QuiesceStalls, ShootdownsApplied uint64
	FastBytes, TotalBytes                            uint64
	SimSeconds                                       float64
}

func (s *simCounts) addPhases(phases []atmem.PhaseResult) {
	for _, p := range phases {
		st := &p.Stats
		s.Accesses += st.Accesses
		s.L1Hits += st.L1Hits
		s.LLCHits += st.LLCHits
		s.LLCMisses += st.LLCMisses
		s.TLBMisses += st.TLBMisses
		s.SeqlockRetries += st.SeqlockRetries
		s.QuiesceStalls += st.QuiesceStalls
		s.ShootdownsApplied += st.ShootdownsApplied
		s.SimSeconds += st.WallSeconds
		for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
			n := st.ReadBytes[t] + st.WriteBytes[t] + st.WritebackBytes[t]
			s.TotalBytes += n
			if t == memsim.TierFast {
				s.FastBytes += n
			}
		}
	}
}

// migCounts sums migration reports.
type migCounts struct {
	bytes                       uint64
	simS                        float64
	regions, retried, skipped   int
	promoted, demoted, pressure uint64
	converged                   int
}

func (m *migCounts) add(r atmem.MigrationReport) {
	m.bytes += r.BytesMoved
	m.simS += r.Seconds
	m.regions += r.Regions
	m.retried += r.RegionsRetried
	m.skipped += r.RegionsSkipped
	m.promoted += r.PromotedBytes
	m.demoted += r.DemotedBytes
	m.pressure += r.PressureDemotedBytes
	if r.DeltaEmpty {
		m.converged++
	}
}

// checkMigration counts a migration with skipped or rolled-back regions
// as a failed operation.
func (o *outcome) checkMigration(r atmem.MigrationReport, what string) {
	o.check(r.RegionsSkipped == 0 && r.RegionsRetried == 0,
		"%s: %d regions skipped, %d rolled back and retried", what, r.RegionsSkipped, r.RegionsRetried)
}

// sharedLayers fills the per-layer metrics every workload shares from
// the measured rounds' counts (additive ones divided by rounds) and the
// recorder's spans. allAccesses counts every access the recorder's
// phase spans cover, warm-up included.
func (o *outcome) sharedLayers(rounds int, sc simCounts, allAccesses uint64, mc migCounts, st spanTotals, samples int) {
	r := float64(rounds)
	L := o.layers
	L["memsim.accesses"] = float64(sc.Accesses) / r
	L["memsim.llc_miss_ratio"] = safeDiv(float64(sc.LLCMisses), float64(sc.LLCHits+sc.LLCMisses))
	L["memsim.tlb_misses"] = float64(sc.TLBMisses) / r
	L["memsim.seqlock_retries"] = float64(sc.SeqlockRetries) / r
	L["memsim.quiesce_stalls"] = float64(sc.QuiesceStalls) / r
	L["memsim.shootdowns_applied"] = float64(sc.ShootdownsApplied) / r
	L["memsim.host_ns_per_access"] = safeDiv(float64(sumPrefix(st.total, "phase/")), float64(allAccesses))
	L["pebs.samples"] = float64(samples) / r

	decisions := float64(st.count["optimize/optimize"])
	L["core.analyze_ms"] = safeDiv(ms(sumPrefix(st.total, "analyze/")), decisions)
	for _, stage := range []string{"rank", "threshold", "promote", "clip"} {
		L["core."+stage+"_ms"] = safeDiv(ms(st.self["analyze/"+stage]), decisions)
	}
	L["migrate.host_ms"] = safeDiv(ms(st.self["optimize/optimize"]), decisions)
	L["migrate.mib"] = float64(mc.bytes) / mib / r
	L["migrate.sim_ms"] = mc.simS * 1e3 / r
	L["migrate.regions"] = float64(mc.regions) / r
	L["migrate.retried"] = float64(mc.retried) / r
	L["migrate.skipped"] = float64(mc.skipped) / r
	L["governor.promoted_mib"] = float64(mc.promoted) / mib / r
	L["governor.demoted_mib"] = float64(mc.demoted) / mib / r
	L["governor.pressure_mib"] = float64(mc.pressure) / mib / r
	L["governor.converged_epochs"] = float64(mc.converged) / r
	L["atmem.epoch_self_ms"] = safeDiv(ms(sumPrefix(st.self, "epoch/")), float64(sumPrefix(st.count, "epoch/")))
}

// sumPrefix adds the values of every span name with the prefix.
func sumPrefix[V time.Duration | int](m map[string]V, prefix string) V {
	var sum V
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// recorded collects the runtime recorders of a traced run: their span
// totals, event counts and trace-export cost.
type recorded struct {
	st       spanTotals
	events   int
	exportMS float64
}

func newRecorded() *recorded {
	return &recorded{st: totalsOf(nil)}
}

// take folds one runtime's recorder in; the runtime must be quiescent.
func (rc *recorded) take(rt *atmem.Runtime) error {
	rec := rt.Telemetry()
	if rec == nil {
		return nil
	}
	t0 := time.Now()
	if err := rt.WriteTrace(io.Discard); err != nil {
		return err
	}
	rc.exportMS += ms(time.Since(t0))
	rc.events += rec.Len()
	rc.st.add(totalsOf(RecorderSpans(rec.Events())))
	return nil
}

// recorderOption attaches a fresh telemetry recorder when tracing.
func recorderOption(trace bool) []atmem.Option {
	if !trace {
		return nil
	}
	return []atmem.Option{atmem.WithTelemetry(telemetry.NewRecorder())}
}
