package main

import (
	"fmt"
	"runtime"
	"time"

	"atmem"
	"atmem/internal/governor"
	"atmem/internal/memsim"
)

// hotshift is one governed runtime with the scrubber on and a tight
// capacity reserve, over a heap several times its fast-tier budget.
// Each epoch's body reads a few-MiB hot window and stores to one
// element in storeStride, so migration carries dirty data and the
// scrubber re-snapshots it. The window jumps to a new seeded offset
// every hotshiftHold epochs: the epochs after a jump promote the new
// hot set and demote the old one, the ones before the next jump find
// placement converged. Placement, not the simulated access path, does
// most of the host work. A round is one epoch.

const (
	storeStride    = 32
	hotshiftHold   = 4 // epochs the window stays at one offset
	hotshiftWarmup = 4 // epochs excluded from every statistic
)

type hotshiftSize struct {
	heapElems, windowElems int
	budget                 uint64
}

func hotshiftSizes(tiny bool) hotshiftSize {
	if tiny {
		return hotshiftSize{heapElems: 1 << 20, windowElems: 1 << 14, budget: 1 << 20}
	}
	return hotshiftSize{heapElems: 4 << 20, windowElems: 1 << 17, budget: 4 << 20}
}

// mix is a splitmix64 step: the seeded value source for offsets, the
// heap's initial contents and every store.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// storeValue is the value epoch e stores at element i.
func storeValue(seed uint64, e, i int) uint64 {
	return mix(seed ^ mix(uint64(e)<<40^uint64(i)))
}

// windowOffset is epoch e's window start.
func windowOffset(seed uint64, e int, sz hotshiftSize) int {
	return int(mix(seed*0x2545f4914f6cdd1d+uint64(e/hotshiftHold)) % uint64(sz.heapElems-sz.windowElems))
}

type hotshiftState struct {
	rt   *atmem.Runtime
	heap *atmem.Array[uint64]
	ref  []uint64 // plain-Go reference of every seeded store
	sz   hotshiftSize
	seed uint64
}

func setupHotshift(cfg config, trace bool) (*hotshiftState, time.Duration, error) {
	t0 := time.Now()
	sz := hotshiftSizes(cfg.tiny)
	tb := atmem.NVMDRAM()
	fast := tb.Params().Tiers[memsim.TierFast].CapacityBytes
	opts := append([]atmem.Option{
		atmem.WithPlacementPolicy(atmem.PaperPolicy()),
		atmem.WithGovernor(atmem.GovernorOptions{}),
		atmem.WithScrubber(),
		atmem.WithCapacityReserve(fast - sz.budget),
	}, recorderOption(trace)...)
	rt, err := atmem.New(tb, opts...)
	if err != nil {
		return nil, 0, err
	}
	heap, err := atmem.NewArray[uint64](rt, "heap", sz.heapElems)
	if err != nil {
		return nil, 0, err
	}
	raw := heap.Raw()
	for i := range raw {
		raw[i] = mix(cfg.seed + uint64(i))
	}
	s := &hotshiftState{rt: rt, heap: heap, ref: append([]uint64(nil), raw...), sz: sz, seed: cfg.seed}
	return s, time.Since(t0), nil
}

// hotshiftEpoch is what one epoch observed.
type hotshiftEpoch struct {
	epoch, body time.Duration
	rep         atmem.EpochReport
}

// epoch runs global epoch e: the window body inside RunEpoch.
func (s *hotshiftState) runEpoch(e int, tr *Tracer) (hotshiftEpoch, error) {
	off := windowOffset(s.seed, e, s.sz)
	w := s.sz.windowElems
	var ep hotshiftEpoch
	var err error
	ep.epoch = timed(tr, "RunEpoch", -1, func(id int) {
		ep.rep, err = s.rt.RunEpoch(fmt.Sprintf("hot-%d", e), func() {
			ep.body = timed(tr, "body", id, func(int) {
				s.rt.RunPhase("window", func(c *atmem.Ctx) {
					lo, hi := c.Range(w)
					var sum uint64
					for _, v := range s.heap.LoadSeq(c, off+lo, off+hi) {
						sum += v
					}
					c.Compute(float64(sum & 1))
					for i := (lo + storeStride - 1) / storeStride * storeStride; i < hi; i += storeStride {
						s.heap.Store(c, off+i, storeValue(s.seed, e, off+i))
					}
				})
			})
		})
	})
	for i := 0; i < w; i += storeStride {
		s.ref[off+i] = storeValue(s.seed, e, off+i)
	}
	return ep, err
}

// hotshiftRun is the record of a whole sequence of epochs.
type hotshiftRun struct {
	epochs []hotshiftEpoch
	m      meter
	sc     simCounts // every epoch, for the traced-run equality check
	simS   float64   // simulated clock after the last epoch
	simW   float64   // simulated clock at the end of warm-up
}

// runEpochs runs epochs until n have run (n > 0) or, for n == 0, until
// seconds of measured epochs have passed after warm-up.
func (s *hotshiftState) runEpochs(n int, seconds float64, tr *Tracer, out *outcome) *hotshiftRun {
	hr := &hotshiftRun{}
	var measured time.Duration
	for e := 0; ; e++ {
		if n > 0 && e == n || n == 0 && e > hotshiftWarmup && measured.Seconds() >= seconds {
			break
		}
		if e == hotshiftWarmup {
			hr.simW = s.rt.SimSeconds()
		}
		if e >= hotshiftWarmup {
			hr.m.start()
		}
		ep, err := s.runEpoch(e, tr)
		hr.m.stop()
		if e >= hotshiftWarmup {
			measured += ep.epoch
		}
		out.checkErr(err, fmt.Sprintf("epoch %d", e))
		out.checkMigration(ep.rep.Migration, fmt.Sprintf("epoch %d", e))
		hr.sc.addPhases(ep.rep.Phases)
		hr.epochs = append(hr.epochs, ep)
	}
	hr.simS = s.rt.SimSeconds()
	return hr
}

// verify checks the heap against the reference and the scrubber's
// detection count.
func (s *hotshiftState) verify(out *outcome) {
	raw, bad := s.heap.Raw(), 0
	for i := range raw {
		if raw[i] != s.ref[i] {
			bad++
		}
	}
	out.check(bad == 0, "heap differs from the reference in %d elements", bad)
	hs := s.rt.HealthStats()
	out.check(hs.Scrub.Detections == 0, "scrubber detected %d corruptions", hs.Scrub.Detections)
}

func runHotshift(cfg config) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var s *hotshiftState
	for i := 0; i < setupReps; i++ {
		s = nil
		runtime.GC() // start every timed set-up from a collected heap
		st, d, err := setupHotshift(cfg, false)
		if err != nil {
			return nil, err
		}
		s = st
		setups = append(setups, d.Seconds())
	}
	hr := s.runEpochs(0, cfg.measureSeconds(), nil, out)
	s.verify(out)

	measured := hr.epochs[hotshiftWarmup:]
	var epochMS, placeMS []float64
	for _, ep := range measured {
		epochMS = append(epochMS, ms(ep.epoch))
		placeMS = append(placeMS, ms(ep.epoch-ep.body))
	}
	var shares []float64
	for _, card := range s.rt.Scorecards()[hotshiftWarmup:] {
		shares = append(shares, card.FastAccessShare)
	}
	var accesses uint64
	for _, ep := range measured {
		for _, p := range ep.rep.Phases {
			accesses += p.Stats.Accesses
		}
	}
	n := float64(len(measured))
	epoch, place := Summarize(epochMS), Summarize(placeMS)
	E := out.e2e
	E["setup_s"] = Median(setups)
	E["wall_s"] = hr.m.wall.Seconds() / n
	E["cpu_s"] = hr.m.cpu.Seconds() / n
	E["sim_maccess_per_s"] = float64(accesses) / 1e6 / hr.m.wall.Seconds()
	E["epoch_ms_p50"], E["epoch_ms_p90"] = epoch.P50, epoch.P90
	E["place_ms_p50"], E["place_ms_p90"] = place.P50, place.P90
	E["sim_s"] = (hr.simS - hr.simW) / n
	out.layers["governor.fast_share"] = mean(shares)
	out.info["rounds"] = len(measured)
	out.info["epoch_ms"] = epoch
	out.info["place_ms"] = place

	if cfg.trace {
		s = nil // release the untraced heap before the traced one
		runtime.GC()
		if err := traceHotshift(cfg, hr, out); err != nil {
			return nil, err
		}
	}
	E["peak_rss_mib"] = peakRSSMiB()
	return out, nil
}

// traceHotshift reruns the same epochs with tracing on, checks that
// tracing left the simulated clock and every simulator count exactly
// as the untraced run had them, and derives the per-layer metrics.
func traceHotshift(cfg config, untraced *hotshiftRun, out *outcome) error {
	s, _, err := setupHotshift(cfg, true)
	if err != nil {
		return err
	}
	tr := NewTracer()
	hr := s.runEpochs(len(untraced.epochs), 0, tr, out)
	s.verify(out)
	out.check(hr.simS == untraced.simS && hr.sc == untraced.sc,
		"traced run diverged from the untraced run: sim %v vs %v s, counts %+v vs %+v",
		hr.simS, untraced.simS, hr.sc, untraced.sc)

	rc := newRecorded()
	if err := rc.take(s.rt); err != nil {
		return err
	}
	measured := hr.epochs[hotshiftWarmup:]
	var sc simCounts
	var mc migCounts
	samples := 0
	for _, ep := range measured {
		sc.addPhases(ep.rep.Phases)
		mc.add(ep.rep.Migration)
		samples += ep.rep.Samples
	}
	// The recorder saw the warm-up epochs too; its per-decision
	// averages cover every epoch.
	n := float64(len(measured))
	out.sharedLayers(len(measured), sc, hr.sc.Accesses, mc, rc.st, samples)
	L := out.layers
	L["governor.breaker_opens"] = float64(breakerOpens(s.rt)) / n
	hs := s.rt.HealthStats()
	L["health.scrubbed_mib"] = float64(hs.Scrub.BytesScrubbed) / mib / float64(len(hr.epochs))
	L["health.detections"] = float64(hs.Scrub.Detections)
	L["telemetry.overhead_ratio"] = safeDiv(float64(hr.m.wall), float64(untraced.m.wall))
	L["telemetry.events"] = float64(rc.events) / float64(len(hr.epochs))
	L["telemetry.export_ms"] = rc.exportMS / float64(len(hr.epochs))
	out.spans = tr.Spans()
	return nil
}

// breakerOpens counts the circuit breaker's transitions into open.
func breakerOpens(rt *atmem.Runtime) int {
	n := 0
	for _, t := range rt.BreakerTransitions() {
		if t.To == governor.StateOpen {
			n++
		}
	}
	return n
}
