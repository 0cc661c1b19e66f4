package atmem

// This file is the runtime half of the epoch-adaptive placement
// governor (see internal/governor for the control mechanisms and
// internal/core's Residency for delta planning). A governed runtime
// re-optimizes repeatedly as the application's hot set drifts — the
// adaptive interval loop of the paper's §5 — and must do so without
// re-migrating data that is already placed, without erroring when the
// budget shrinks, and without hammering a failing migration path.

import (
	"context"
	"fmt"

	"atmem/internal/core"
	"atmem/internal/governor"
	"atmem/internal/memsim"
	"atmem/internal/migrate"
	"atmem/internal/telemetry"
)

// govInfo captures one governed Optimize for reporting.
type govInfo struct {
	epoch          int
	decision       governor.Decision
	state          governor.State // breaker state after the epoch
	skipped        bool           // breaker-open epoch, no migration ran
	emptyDelta     bool           // nothing to move before any probe shrink
	promotedBytes  uint64
	demotedBytes   uint64
	regionsDemoted int
	pressureBytes  uint64 // demotions scheduled by the watermarks
	residentBytes  uint64
}

// EpochReport is the outcome of one Runtime.RunEpoch: the phases the
// body ran, the samples the epoch attributed, and the governed
// migration report.
type EpochReport struct {
	// Epoch is the 1-based runtime epoch number.
	Epoch int
	// Samples is how many profiler samples the epoch attributed to
	// registered objects.
	Samples int
	// Optimized reports whether the epoch ran the governed Optimize (a
	// zero-sample epoch carries no placement signal and keeps the
	// current placement without consulting the breaker).
	Optimized bool
	// Migration is the governed migration report (zero when Optimized
	// is false).
	Migration MigrationReport
	// Phases are the phases the epoch body ran, in order.
	Phases []PhaseResult
	// Overlapped reports whether a background placement ran concurrently
	// with this epoch's phases (RunEpochAsync only).
	Overlapped bool
	// PlacedFromEpoch is the epoch whose samples the overlapped
	// placement used (0 when no background placement ran — the pipeline's
	// first epoch has nothing pending).
	PlacedFromEpoch int
	// OverlapSeconds is how much of the background migration's modelled
	// time was hidden under the epoch's phases.
	OverlapSeconds float64
	// StolenSeconds is the share of the overlapped time charged back to
	// the simulated clock as bandwidth stolen from the running kernels.
	StolenSeconds float64
	// Replayed marks an epoch that executed a compiled plan's recorded
	// schedule instead of the profile→analyze→migrate loop (see
	// Runtime.ArmPlan).
	Replayed bool
}

// Epoch returns the current epoch count (epochs started so far).
func (r *Runtime) Epoch() int { return r.epoch }

// BreakerState returns the circuit breaker's current state. It returns
// the zero state on an ungoverned runtime.
func (r *Runtime) BreakerState() governor.State {
	if r.breaker == nil {
		return governor.StateClosed
	}
	return r.breaker.State()
}

// BreakerTransitions returns every breaker state change so far, in
// order (nil on an ungoverned runtime).
func (r *Runtime) BreakerTransitions() []governor.Transition {
	if r.breaker == nil {
		return nil
	}
	return r.breaker.Transitions()
}

// ResidentBytes returns the bytes the governor currently tracks as
// fast-resident (zero on an ungoverned runtime).
func (r *Runtime) ResidentBytes() uint64 {
	if r.resid == nil {
		return 0
	}
	return r.resid.ResidentBytes()
}

// RunEpoch drives one adaptive interval: reset the per-epoch heat,
// profile the body (which runs its phases via RunPhase), then run the
// governed Optimize on the epoch's samples. A body that produced no
// attributable samples keeps the current placement — an idle interval
// carries no signal, so neither the hysteresis counters nor the breaker
// advance. While a compiled plan is armed (see Runtime.ArmPlan) the
// epoch instead runs its body with profiling off and applies the plan's
// recorded schedule for this epoch; epochs past the end of the recording
// run on the final placement and migrate nothing — the recorded run had
// converged by then. Requires Options.Governor.Enabled.
func (r *Runtime) RunEpoch(name string, body func()) (EpochReport, error) {
	return r.RunEpochCtx(context.Background(), name, body)
}

// RunEpochCtx is RunEpoch with a context: cancellation mid-plan makes
// the migration engine roll back the in-flight region and skip the rest
// of the schedule (the regions report OutcomeSkipped), leaving placement
// consistent.
func (r *Runtime) RunEpochCtx(ctx context.Context, name string, body func()) (EpochReport, error) {
	if r.resid == nil {
		return EpochReport{}, fmt.Errorf("atmem: RunEpoch requires Options.Governor.Enabled")
	}
	replay := r.armedPlan != nil
	r.epoch++
	if replay {
		r.planEpoch++
	}
	// spanArgs tags every edge of a replayed epoch's span.
	spanArgs := func(a telemetry.Args) telemetry.Args {
		if replay {
			a["replay"] = true
		}
		return a
	}
	r.rec.Begin(0, "epoch", name, spanArgs(telemetry.Args{"epoch": r.epoch}))
	rep := EpochReport{Epoch: r.epoch, Replayed: replay}
	phaseStart := len(r.phases)
	// The epoch's scorecard charges exactly the scrub time this epoch's
	// health passes add (the epoch-start pass below and the epoch-end
	// evacuations), so diff the cumulative charge across the epoch.
	scrubStart := r.scrubChargedNS

	// Epoch-start health pass: fire the fault schedule's epoch-driven
	// orders and scrub the fast-tier residency, so injected corruption is
	// detected and repaired before any kernel consumes it (see health.go).
	// A replayed epoch runs it too, so a fault storm during replay
	// degrades per-region exactly like the recorded run would have. On a
	// broker tenant the pass may migrate (emergency demotions), so it
	// takes the cross-tenant placement lock.
	r.lockPlacement()
	herr := r.beginEpochHealth(0)
	r.unlockPlacement()
	if herr != nil {
		r.rec.End(0, "epoch", name, spanArgs(telemetry.Args{"epoch": r.epoch, "error": herr.Error()}))
		return rep, herr
	}

	if replay {
		body()
	} else {
		// Each epoch ranks on its own interval's heat: stale samples from
		// previous intervals would anchor the old hot set and mask drift.
		r.reg.ResetSamples()
		r.ProfilingStart()
		body()
		rep.Samples = r.ProfilingStop()
	}
	rep.Phases = append(rep.Phases, r.phases[phaseStart:]...)

	// While a recorder is armed, every epoch must land in the plan —
	// including ones that never reach the commit point (zero samples,
	// open breaker, empty budget) — so the replayed epoch numbering stays
	// aligned with the bodies the caller runs.
	recBase := -1
	if r.planRec != nil {
		recBase = r.planRec.Epochs()
	}
	var err error
	switch {
	case replay && r.planEpoch <= r.armedPlan.Epochs:
		rep.Optimized = true
		rep.Migration, err = r.applyPlanEpoch(ctx, r.planEpoch)
	case !replay && rep.Samples > 0:
		rep.Optimized = true
		rep.Migration, err = r.place(ctx, r.prof.Config().Period, 0)
	}
	if r.planRec != nil && r.planRec.Epochs() == recBase {
		r.recordCommitted(nil, nil)
	}
	// Epoch-end health pass: evacuate condemned granules and re-snapshot
	// the settled fast-tier residency for the next epoch's scrub.
	if err == nil {
		r.lockPlacement()
		err = r.endEpochHealth(0)
		r.unlockPlacement()
	}
	r.finishEpochScorecard(&rep, scrubStart)
	r.rec.End(0, "epoch", name, spanArgs(telemetry.Args{
		"epoch":     r.epoch,
		"samples":   rep.Samples,
		"optimized": rep.Optimized,
	}))
	return rep, err
}

// governedSchedule is the governor's half of place: the delta of a
// fresh plan against residency (promotions of newly-hot ranges,
// demotions of ranges cold for the whole hysteresis window), plus the
// watermark-driven pressure demotions, demotions first so reclaimed
// capacity funds the promotions.
func (r *Runtime) governedSchedule(plan *core.Plan, gi *govInfo) migrate.Schedule {
	// The not-yet-expired cold chunks come back as pressure candidates.
	delta, cands := r.resid.Advance(plan, r.govCfg.DemoteAfterEpochs)

	// Pressure watermarks: if committing the delta would push occupancy
	// over the high watermark, demote candidates coldest-first until
	// the projection drains to the low watermark. This is what lets a
	// hot-set shift or a budget cut proceed before hysteresis expires.
	capEff := r.sys.P.Tiers[memsim.TierFast].CapacityBytes
	// Quarantined pages are capacity the tier no longer has: the
	// watermarks must drain occupancy against the effective size, or a
	// shrunken tier would never look pressured.
	capEff -= min(capEff, r.sys.Quarantined())
	committed := r.sys.Used(memsim.TierFast)
	if r.tenant != nil {
		// Per-tenant watermarks: this tenant's fast footprint pressured
		// against its own (quarantine-debited) share, so a share cut or
		// its own fault storm drains this tenant's residency without
		// touching anyone else's.
		capEff = r.tenant.Budget()
		committed = r.sys.TenantUsage(r.tenant.ID()).FastBytes
	}
	capEff -= min(capEff, r.opts.CapacityReserve)
	projected := committed + delta.PromoteBytes
	projected -= min(projected, delta.DemoteBytes)
	target := governor.DemotionTarget(projected, capEff,
		r.govCfg.HighWatermark, r.govCfg.LowWatermark)
	if capEff == 0 {
		// DemotionTarget treats zero capacity as "no signal"; here it
		// means the budget is gone entirely — drain everything.
		target = projected
	}
	sched := migrate.Schedule{}
	for _, rg := range delta.Demotions {
		sched.Demotions = append(sched.Demotions, migrate.Region{Base: rg.Base, Size: rg.Size})
	}
	for _, c := range cands {
		if gi.pressureBytes >= target {
			break
		}
		sched.Demotions = append(sched.Demotions, migrate.Region{Base: c.Range.Base, Size: c.Range.Size})
		gi.pressureBytes += c.Range.Size
	}
	for _, rg := range delta.Promotions {
		sched.Promotions = append(sched.Promotions, migrate.Region{Base: rg.Base, Size: rg.Size})
	}
	return sched
}

// registeredFastBytes sums the fast-tier bytes of every registered
// object, from the simulator's ground-truth page table.
func (r *Runtime) registeredFastBytes() uint64 {
	var n uint64
	for _, do := range r.reg.Objects() {
		n += r.sys.BytesOnTier(do.Base, do.Size)[memsim.TierFast]
	}
	return n
}

// markMovedRegion resolves the object containing a committed migration
// range and updates its residency. Regions are built from per-object
// chunk ranges and objects are page-aligned, so a range never spans
// objects.
func (r *Runtime) markMovedRegion(rg migrate.Region, fast bool) {
	if o, _, ok := r.reg.Find(rg.Base); ok {
		r.resid.MarkMoved(o, rg.Base, rg.Size, fast)
	}
}
