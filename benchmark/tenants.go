package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"atmem"
	"atmem/apps"
	"atmem/graph"
	"atmem/internal/memsim"
	"atmem/internal/metrics"
)

// tenants is two tenants (never more than the host's CPUs) admitted to
// one broker on a 48 MiB NVM-DRAM fast tier: a guaranteed bfs tenant and
// a burstable cc tenant, both with the scrubber on and one shared
// metrics registry, on a seeded pokec-like graph. The loop is closed:
// each round runs both tenants' epochs concurrently, then Rebalance,
// then one registry scrape. RunPhase runs unsealed here, beside a
// co-tenant's migrations under the shared placement lock. Tenants own
// disjoint pages, so a co-tenant's remaps never touch a kernel's
// translations; the cc tenant therefore places in the background
// (RunEpochAsync), which is what sends its own kernel reads through the
// shootdown log and the page-table seqlock. A round is one broker round.

const tenantsWarmup = 3 // rounds excluded from every statistic

type tenantSpec struct {
	spec  atmem.TenantSpec
	app   string
	async bool // overlapped placement: RunEpochAsync instead of RunEpoch
}

var tenantCast = []tenantSpec{
	{atmem.TenantSpec{Name: "alpha", Class: atmem.ClassGuaranteed, FloorBytes: 10 << 20, BurstBytes: 10 << 20}, "bfs", false},
	{atmem.TenantSpec{Name: "bravo", Class: atmem.ClassBurstable, FloorBytes: 8 << 20}, "cc", true},
}

func pokecParams(seed uint64, tiny bool) graph.SocialParams {
	p := graph.SocialParams{
		NumVertices:     32768,
		AvgDegree:       20,
		DegreeSkew:      0.55,
		PopularityAlpha: 0.85,
		LocalFraction:   0.4,
		CommunitySize:   64,
		Seed:            seed,
	}
	if tiny {
		p.NumVertices, p.AvgDegree = 16384, 16
	}
	return p
}

type tenant struct {
	spec tenantSpec
	rt   *atmem.Runtime
	k    apps.Kernel
}

type tenantsState struct {
	bk      *atmem.Broker
	reg     *metrics.Registry
	members []*tenant
	total   time.Duration
}

func setupTenants(cfg config, tr *Tracer) (*tenantsState, error) {
	s := &tenantsState{}
	var err error
	s.total = timed(tr, "setup", -1, func(id int) {
		var name string
		name, err = registerGraph(tr, id, "tenants-pokec", pokecParams(cfg.seed, cfg.tiny))
		if err != nil {
			return
		}
		p := atmem.NVMDRAM().Params()
		p.Tiers[memsim.TierFast].CapacityBytes = 48 << 20
		tb := atmem.CustomTestbed(p)
		s.bk = atmem.NewBroker(tb, atmem.BrokerConfig{})
		s.reg = atmem.NewMetricsRegistry()
		for _, ts := range tenantCast[:min(len(tenantCast), runtime.NumCPU())] {
			var tn *atmem.Tenant
			timed(tr, "Admit", id, func(int) { tn, err = s.bk.Admit(ts.spec) })
			if err != nil {
				return
			}
			m := &tenant{spec: ts}
			opts := append([]atmem.Option{
				atmem.WithPlacementPolicy(atmem.PaperPolicy()),
				atmem.WithTenant(tn),
				atmem.WithScrubber(),
				atmem.WithMetrics(s.reg),
			}, recorderOption(tr != nil)...)
			if ts.async {
				opts = append(opts, atmem.WithAsyncPlacement(atmem.AsyncOptions{}))
			}
			if m.rt, err = atmem.New(tb, opts...); err != nil {
				return
			}
			if m.k, err = apps.New(ts.app); err != nil {
				return
			}
			timed(tr, "apps.Setup", id, func(int) { err = m.k.Setup(m.rt, name) })
			if err != nil {
				err = fmt.Errorf("%s setup: %w", ts.app, err)
				return
			}
			s.members = append(s.members, m)
		}
	})
	return s, err
}

// close detaches every tenant from the broker.
func (s *tenantsState) close(out *outcome) {
	for _, m := range s.members {
		out.checkErr(m.rt.Close(), m.spec.spec.Name+" close")
	}
}

// tenantsRun is the record of a sequence of rounds.
type tenantsRun struct {
	rounds    int
	m         meter
	epochMS   []float64 // per round: the slowest tenant epoch
	placeMS   []float64 // per round: every tenant's epoch minus its body
	shareMiB  []float64
	shed      int
	sc, scAll simCounts
	mc        migCounts
	samples   int
	simS      []float64 // per-tenant simulated seconds after warm-up
}

// runRounds runs rounds until n have run (n > 0) or, for n == 0, until
// seconds of measured rounds have passed after warm-up.
func (s *tenantsState) runRounds(n int, seconds float64, tr *Tracer, out *outcome) *tenantsRun {
	run := &tenantsRun{simS: make([]float64, len(s.members))}
	simAtWarm := make([]float64, len(s.members))
	type epochOut struct {
		epoch, body time.Duration
		rep         atmem.EpochReport
		err         error
	}
	for r := 0; ; r++ {
		if n > 0 && r == n || n == 0 && r > tenantsWarmup && run.m.wall.Seconds() >= seconds {
			break
		}
		warm := r >= tenantsWarmup
		if r == tenantsWarmup {
			for i, m := range s.members {
				simAtWarm[i] = m.rt.SimSeconds()
			}
		}
		if warm {
			run.m.start()
		}
		round := tr.Begin("round", -1)
		res := make([]epochOut, len(s.members))
		var wg sync.WaitGroup
		for i, m := range s.members {
			wg.Add(1)
			go func(i int, m *tenant) {
				defer wg.Done()
				eo := &res[i]
				name, call := fmt.Sprintf("%s-%d", m.spec.app, r), "RunEpoch"
				if m.spec.async {
					call = "RunEpochAsync"
				}
				eo.epoch = timed(tr, call, round, func(id int) {
					body := func() {
						eo.body = timed(tr, "body", id, func(int) { m.k.RunIteration(m.rt) })
					}
					if m.spec.async {
						eo.rep, eo.err = m.rt.RunEpochAsync(context.Background(), name, body)
					} else {
						eo.rep, eo.err = m.rt.RunEpoch(name, body)
					}
				})
			}(i, m)
		}
		wg.Wait()
		shed := 0
		timed(tr, "Rebalance", round, func(int) { shed = len(s.bk.Rebalance().Shed) })
		var serr error
		timed(tr, "scrape", round, func(int) { serr = s.reg.WritePrometheus(io.Discard) })
		tr.End(round)
		run.m.stop()
		out.checkErr(serr, "scrape")
		var slowest, place time.Duration
		for i, eo := range res {
			what := fmt.Sprintf("%s round %d", s.members[i].spec.spec.Name, r)
			out.checkErr(eo.err, what)
			out.checkMigration(eo.rep.Migration, what)
			run.scAll.addPhases(eo.rep.Phases)
			if !warm {
				continue
			}
			slowest = max(slowest, eo.epoch)
			place += eo.epoch - eo.body
			run.sc.addPhases(eo.rep.Phases)
			run.mc.add(eo.rep.Migration)
			run.samples += eo.rep.Samples
		}
		if warm {
			run.rounds++
			run.epochMS = append(run.epochMS, ms(slowest))
			run.placeMS = append(run.placeMS, ms(place))
			run.shed += shed
			var share uint64
			for _, m := range s.members {
				share += m.rt.BrokerTenant().Share()
			}
			run.shareMiB = append(run.shareMiB, float64(share)/mib)
		}
	}
	for i, m := range s.members {
		run.simS[i] = m.rt.SimSeconds() - simAtWarm[i]
	}
	return run
}

// verify places any pending background interval, then validates every
// tenant's kernel and checks its scrubber.
func (s *tenantsState) verify(out *outcome) {
	for _, m := range s.members {
		if m.spec.async {
			rep, err := m.rt.DrainAsync(context.Background())
			out.checkErr(err, m.spec.spec.Name+" drain")
			out.checkMigration(rep, m.spec.spec.Name+" drain")
		}
		out.checkErr(m.k.Validate(), m.spec.spec.Name+" validate")
		hs := m.rt.HealthStats()
		out.check(hs.Scrub.Detections == 0, "%s: scrubber detected %d corruptions", m.spec.spec.Name, hs.Scrub.Detections)
	}
}

func runTenants(cfg config) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var s *tenantsState
	for i := 0; i < setupReps; i++ {
		s = nil
		runtime.GC() // start every timed set-up from a collected heap
		st, err := setupTenants(cfg, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st.total.Seconds())
		if i < setupReps-1 {
			st.close(out)
		}
		s = st
	}
	run := s.runRounds(0, cfg.measureSeconds(), nil, out)
	s.verify(out)
	var shares []float64
	for _, m := range s.members {
		for _, card := range m.rt.Scorecards()[tenantsWarmup:] {
			shares = append(shares, card.FastAccessShare)
		}
	}
	s.close(out)

	n := float64(run.rounds)
	epoch, place := Summarize(run.epochMS), Summarize(run.placeMS)
	E := out.e2e
	E["setup_s"] = Median(setups)
	E["wall_s"] = run.m.wall.Seconds() / n
	E["cpu_s"] = run.m.cpu.Seconds() / n
	E["sim_maccess_per_s"] = float64(run.sc.Accesses) / 1e6 / run.m.wall.Seconds()
	E["epoch_ms_p50"], E["epoch_ms_p90"] = epoch.P50, epoch.P90
	E["place_ms_p50"], E["place_ms_p90"] = place.P50, place.P90
	E["sim_s"] = mean(run.simS) / n
	out.layers["governor.fast_share"] = mean(shares)
	out.info["rounds"] = run.rounds
	out.info["tenants"] = len(s.members)
	out.info["epoch_ms"] = epoch
	out.info["place_ms"] = place

	if cfg.trace {
		if err := traceTenants(cfg, run, out); err != nil {
			return nil, err
		}
	}
	E["peak_rss_mib"] = peakRSSMiB()
	return out, nil
}

// traceTenants reruns the same rounds with tracing on and derives the
// per-layer metrics.
func traceTenants(cfg config, untraced *tenantsRun, out *outcome) error {
	tracer := NewTracer()
	s, err := setupTenants(cfg, tracer)
	if err != nil {
		return err
	}
	run := s.runRounds(untraced.rounds+tenantsWarmup, 0, tracer, out)
	s.verify(out)
	rc := newRecorded()
	for _, m := range s.members {
		if err := rc.take(m.rt); err != nil {
			return err
		}
	}
	s.close(out)

	n := float64(run.rounds)
	all := float64(run.rounds + tenantsWarmup)
	out.sharedLayers(run.rounds, run.sc, run.scAll.Accesses, run.mc, rc.st, run.samples)
	L := out.layers
	bt := totalsOf(tracer.Spans())
	L["graph.generate_s"] = bt.total["graph.Load"].Seconds()
	L["graph.derive_s"] = bt.total["graph.LoadReverse+LoadSymmetric"].Seconds()
	L["apps.setup_s"] = bt.total["apps.Setup"].Seconds()
	L["broker.admit_us"] = safeDiv(float64(bt.total["Admit"])/1e3, float64(bt.count["Admit"]))
	L["broker.rebalance_us"] = safeDiv(float64(bt.total["Rebalance"])/1e3, float64(bt.count["Rebalance"]))
	L["broker.share_mib"] = mean(run.shareMiB)
	L["broker.shed_events"] = float64(run.shed) / n
	L["metrics.scrape_ms"] = safeDiv(ms(bt.total["scrape"]), float64(bt.count["scrape"]))
	var scrubbed uint64
	detections := 0
	for _, m := range s.members {
		hs := m.rt.HealthStats()
		scrubbed += hs.Scrub.BytesScrubbed
		detections += hs.Scrub.Detections
	}
	L["health.scrubbed_mib"] = float64(scrubbed) / mib / all
	L["health.detections"] = float64(detections)
	L["telemetry.overhead_ratio"] = safeDiv(float64(run.m.wall), float64(untraced.m.wall))
	L["telemetry.events"] = float64(rc.events) / all
	L["telemetry.export_ms"] = rc.exportMS / all
	out.spans = tracer.Spans()
	return nil
}
