package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"atmem"
	"atmem/apps"
	"atmem/graph"
)

// oneshot is the paper's §6 pipeline: for each of bfs, sssp, pr, bc and
// cc, an all-slow baseline run and an ATMem run (profiled cold
// iteration, Optimize, one warm iteration, the measured iteration,
// Validate) on a seeded twitter-like social graph on NVM-DRAM. A round
// is one pass over the ten runs; every pass sets up afresh, because the
// pipeline is one-shot.

// socialParams is the twitter-like input: extreme hub skew, 81,920
// vertices, average degree 30.
func socialParams(seed uint64, tiny bool) graph.SocialParams {
	p := graph.SocialParams{
		NumVertices:     81920,
		AvgDegree:       30,
		DegreeSkew:      0.75,
		PopularityAlpha: 1.05,
		LocalFraction:   0.15,
		CommunitySize:   32,
		Seed:            seed,
	}
	if tiny {
		p.NumVertices, p.AvgDegree = 16384, 16
	}
	return p
}

// registerGraph registers a seeded generated graph under a name that
// contains the seed, then generates it and its derived CSRs under
// spans. Registering drops any cached copy, so every call generates
// afresh.
func registerGraph(tr *Tracer, parent int, prefix string, p graph.SocialParams) (name string, err error) {
	name = fmt.Sprintf("%s-seed%d", prefix, p.Seed)
	graph.RegisterDataset(name, func() (*graph.Graph, error) { return graph.GenerateSocial(name, p) })
	timed(tr, "graph.Load", parent, func(int) { _, err = graph.Load(name) })
	if err != nil {
		return name, err
	}
	timed(tr, "graph.LoadReverse+LoadSymmetric", parent, func(int) {
		if _, err = graph.LoadReverse(name); err == nil {
			_, err = graph.LoadSymmetric(name)
		}
	})
	return name, err
}

// oneshotRun is one kernel under one policy, set up and ready.
type oneshotRun struct {
	kernel string
	atmem  bool
	rt     *atmem.Runtime
	k      apps.Kernel
}

// oneshotSetup is one pass's set-up: the graph and ten runtimes.
type oneshotSetup struct {
	runs  []oneshotRun
	total time.Duration
}

func setupOneshot(cfg config, tr *Tracer) (*oneshotSetup, error) {
	s := &oneshotSetup{}
	var err error
	s.total = timed(tr, "setup", -1, func(id int) {
		var name string
		name, err = registerGraph(tr, id, "oneshot-social", socialParams(cfg.seed, cfg.tiny))
		if err != nil {
			return
		}
		for _, kn := range apps.Names() {
			for _, useATMem := range []bool{false, true} {
				pol := atmem.PaperPolicy()
				if !useATMem {
					if pol, err = atmem.BuiltinPolicy(atmem.PolicyBaseline); err != nil {
						return
					}
				}
				opts := append([]atmem.Option{atmem.WithPlacementPolicy(pol)}, recorderOption(tr != nil)...)
				run := oneshotRun{kernel: kn, atmem: useATMem}
				if run.rt, err = atmem.New(atmem.NVMDRAM(), opts...); err != nil {
					return
				}
				if run.k, err = apps.New(kn); err != nil {
					return
				}
				timed(tr, "apps.Setup", id, func(int) { err = run.k.Setup(run.rt, name) })
				if err != nil {
					err = fmt.Errorf("%s setup: %w", kn, err)
					return
				}
				s.runs = append(s.runs, run)
			}
		}
	})
	return s, err
}

// oneshotPass holds what one measured pass observed.
type oneshotPass struct {
	m              meter
	iterMS         []float64 // every RunIteration, host ms
	placeMS        []float64 // every OptimizeCtx, host ms
	measuredIterMS map[string]float64
	speedups       []float64
	shares         []float64
	simS           float64
	samples        int
	profiledIter   time.Duration // host time of the profiled iterations
	nextIter       time.Duration // host time of the unprofiled iterations after them
}

// runOneshotPass measures one pass over the set-up runs, adding its
// phases to sc and its migrations to mc. With a recorder collection rc,
// each runtime's telemetry is folded in after its run, outside the
// measured segment.
func runOneshotPass(s *oneshotSetup, tr *Tracer, out *outcome, rc *recorded, sc *simCounts, mc *migCounts) *oneshotPass {
	p := &oneshotPass{measuredIterMS: map[string]float64{}}
	baseline := map[string]float64{}
	pass := tr.Begin("pass", -1)
	for _, r := range s.runs {
		what := r.kernel + "/baseline"
		if r.atmem {
			what = r.kernel + "/atmem"
		}
		iter := func(span string) (apps.IterationResult, time.Duration) {
			var res apps.IterationResult
			d := timed(tr, span, pass, func(int) { res = r.k.RunIteration(r.rt) })
			p.iterMS = append(p.iterMS, ms(d))
			sc.addPhases(res.Phases)
			return res, d
		}
		p.m.start()
		if r.atmem {
			timed(tr, "ProfilingStart", pass, func(int) { r.rt.ProfilingStart() })
		}
		_, cold := iter("RunIteration")
		if r.atmem {
			timed(tr, "ProfilingStop", pass, func(int) { p.samples += r.rt.ProfilingStop() })
			var rep atmem.MigrationReport
			var err error
			d := timed(tr, "OptimizeCtx", pass, func(int) { rep, err = r.rt.OptimizeCtx(context.Background()) })
			p.placeMS = append(p.placeMS, ms(d))
			out.checkErr(err, what+" optimize")
			out.checkMigration(rep, what)
			mc.add(rep)
		}
		_, warm := iter("RunIteration")
		if r.atmem {
			p.profiledIter += cold
			p.nextIter += warm
		}
		res, d := iter("RunIteration")
		var err error
		timed(tr, "Validate", pass, func(int) { err = r.k.Validate() })
		p.m.stop()
		out.checkErr(err, what+" validate")

		var one simCounts
		one.addPhases(res.Phases)
		if r.atmem {
			p.measuredIterMS[r.kernel] = ms(d)
			p.simS += res.Seconds
			p.speedups = append(p.speedups, safeDiv(baseline[r.kernel], res.Seconds))
			p.shares = append(p.shares, safeDiv(float64(one.FastBytes), float64(one.TotalBytes)))
		} else {
			baseline[r.kernel] = res.Seconds
		}
		if rc != nil {
			out.checkErr(rc.take(r.rt), what+" trace export")
		}
	}
	tr.End(pass)
	return p
}

func runOneshot(cfg config) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var s *oneshotSetup
	var err error
	for i := 0; i < setupReps; i++ {
		s = nil
		runtime.GC() // start every timed set-up from a collected heap
		if s, err = setupOneshot(cfg, nil); err != nil {
			return nil, err
		}
		setups = append(setups, s.total.Seconds())
	}

	var passes []*oneshotPass
	var sc simCounts
	var mc migCounts
	// A pass takes seconds, so start another only if it should finish in
	// time: the pass count then stays the same from run to run on a host.
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds()*float64(len(passes)+1)/float64(len(passes)) <= cfg.measureSeconds() {
		if len(passes) > 0 {
			s = nil
			runtime.GC()
			if s, err = setupOneshot(cfg, nil); err != nil {
				return nil, err
			}
			setups = append(setups, s.total.Seconds())
		}
		passes = append(passes, runOneshotPass(s, nil, out, nil, &sc, &mc))
	}

	var wall, cpu time.Duration
	var iterMS, placeMS, speedups, shares []float64
	var simS float64
	for _, p := range passes {
		wall += p.m.wall
		cpu += p.m.cpu
		iterMS = append(iterMS, p.iterMS...)
		placeMS = append(placeMS, sum(p.placeMS))
		speedups = append(speedups, GeoMean(p.speedups))
		shares = append(shares, p.shares...)
		simS += p.simS
	}
	n := float64(len(passes))
	epoch, place := Summarize(iterMS), Summarize(placeMS)
	E := out.e2e
	E["setup_s"] = Median(setups)
	E["wall_s"] = wall.Seconds() / n
	E["cpu_s"] = cpu.Seconds() / n
	E["sim_maccess_per_s"] = float64(sc.Accesses) / 1e6 / wall.Seconds()
	E["epoch_ms_p50"], E["epoch_ms_p90"] = epoch.P50, epoch.P90
	E["place_ms_p50"], E["place_ms_p90"] = place.P50, place.P90
	E["sim_s"] = simS / n
	out.layers["governor.fast_share"] = mean(shares)
	out.info["rounds"] = len(passes)
	out.info["setups"] = len(setups)
	out.info["kernel_runs"] = len(passes) * len(apps.Names()) * 2
	out.info["epoch_ms"] = epoch
	out.info["place_ms"] = place
	out.info["sim_speedup"] = Median(speedups)

	if cfg.trace {
		if err := traceOneshot(cfg, len(passes), wall, out); err != nil {
			return nil, err
		}
	}
	E["peak_rss_mib"] = peakRSSMiB()
	return out, nil
}

// traceOneshot reruns the same number of passes with tracing on and
// derives the per-layer metrics from the benchmark's spans, the runtime
// recorders and the reports.
func traceOneshot(cfg config, rounds int, untracedWall time.Duration, out *outcome) error {
	rc := newRecorded()
	tr := NewTracer()
	var wall, profiled, next time.Duration
	var sc simCounts
	var mc migCounts
	var samples int
	var speedups []float64
	iterMS := map[string][]float64{}
	for i := 0; i < rounds; i++ {
		s, err := setupOneshot(cfg, tr)
		if err != nil {
			return err
		}
		p := runOneshotPass(s, tr, out, rc, &sc, &mc)
		wall += p.m.wall
		samples += p.samples
		profiled += p.profiledIter
		next += p.nextIter
		speedups = append(speedups, GeoMean(p.speedups))
		for k, v := range p.measuredIterMS {
			iterMS[k] = append(iterMS[k], v)
		}
	}
	n := float64(rounds)
	bt := totalsOf(tr.Spans())
	out.sharedLayers(rounds, sc, sc.Accesses, mc, rc.st, samples)
	L := out.layers
	L["graph.generate_s"] = bt.total["graph.Load"].Seconds() / n
	L["graph.derive_s"] = bt.total["graph.LoadReverse+LoadSymmetric"].Seconds() / n
	L["apps.setup_s"] = bt.total["apps.Setup"].Seconds() / n
	L["apps.validate_s"] = bt.total["Validate"].Seconds() / n
	for _, k := range apps.Names() {
		L["apps."+k+".iter_ms"] = Median(iterMS[k])
	}
	L["apps.sim_speedup"] = Median(speedups)
	L["pebs.overhead_ratio"] = safeDiv(float64(profiled), float64(next))
	L["core.attribute_ms"] = safeDiv(ms(bt.total["ProfilingStop"]), float64(bt.count["ProfilingStop"]))
	L["telemetry.overhead_ratio"] = safeDiv(float64(wall), float64(untracedWall))
	L["telemetry.events"] = float64(rc.events) / n
	L["telemetry.export_ms"] = rc.exportMS / n
	out.spans = tr.Spans()
	return nil
}
