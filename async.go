package atmem

// This file is the overlapped background placement pipeline: the
// runtime analogue of the paper's service threads, which profile and
// migrate while the application keeps computing. RunEpochAsync drives a
// one-interval-deep pipeline — the placement computed from epoch N's
// samples executes on a background goroutine while epoch N+1's phases
// run — and reconciles the simulated clock at the join so only the
// non-hidden share of the migration (plus the bandwidth it steals from
// the kernels) is charged. Safety against the concurrently-running
// kernels comes from the memory simulator: per-page seqlock
// generations make translations self-consistent under remap, quiesce
// gates block writers for exactly the remap window, and the shootdown
// log invalidates stale TLB entries lazily at each accessor's next
// access.

import (
	"context"
	"fmt"

	"atmem/internal/telemetry"
)

// asyncOutcome carries a background placement's result across the
// epoch join.
type asyncOutcome struct {
	rep MigrationReport
	err error
}

// RunEpochAsync is RunEpochCtx with overlapped placement: instead of
// stopping the world after the body to analyze and migrate, it launches
// the governed Optimize for the *previous* epoch's samples on a
// background service goroutine, runs the body concurrently, and joins
// before attributing this epoch's samples. The first epoch of a run
// (nothing pending) overlaps nothing and just profiles; call
// DrainAsync after the last epoch to place the final interval's
// samples. Requires Options.Async.Enabled.
//
// Cancelling ctx stops the in-flight background plan at the next
// region or staging-slice boundary (rolled back, reported skipped); the
// epoch itself still completes and attributes its samples.
func (r *Runtime) RunEpochAsync(ctx context.Context, name string, body func()) (EpochReport, error) {
	if r.resid == nil || !r.opts.Async.Enabled {
		return EpochReport{}, fmt.Errorf("atmem: RunEpochAsync requires Options.Async.Enabled")
	}
	r.epoch++
	r.rec.Begin(0, "epoch", name, telemetry.Args{"epoch": r.epoch, "async": true})
	rep := EpochReport{Epoch: r.epoch}
	phaseStart := len(r.phases)
	scrubStart := r.scrubChargedNS

	// Launch the background placement on the pending interval's samples.
	// The heat is still in the registry — the reset is deferred to the
	// join, because the worker's analyzer is reading it — and the period
	// those samples were captured at rides along as a value, because the
	// profiler is about to be reconfigured for the next window.
	var done chan asyncOutcome
	if r.pendingSamples > 0 {
		rep.Overlapped = true
		rep.PlacedFromEpoch = r.epoch - 1
		period := r.pendingPeriod
		done = make(chan asyncOutcome, 1)
		r.asyncActive.Store(true)
		r.rec.Begin(r.placeTID, "placement", "overlap", telemetry.Args{
			"from_epoch": rep.PlacedFromEpoch,
			"samples":    r.pendingSamples,
		})
		go func() {
			mrep, err := r.optimizeGoverned(ctx, period, r.placeTID)
			done <- asyncOutcome{rep: mrep, err: err}
		}()
	}
	r.pendingSamples, r.pendingPeriod = 0, 0

	// Note: no registry reset here, unlike RunEpochCtx. Profiling
	// captures into the profiler's own buffer; attribution onto the
	// (freshly reset) registry happens after the join.
	r.ProfilingStart()
	body()

	var err error
	if done != nil {
		out := <-done
		r.asyncActive.Store(false)
		rep.Optimized = true
		rep.Migration = out.rep
		err = out.err
		r.reconcileOverlap(&rep, phaseStart)
		r.rec.End(r.placeTID, "placement", "overlap", telemetry.Args{
			"migration_s": rep.Migration.Seconds,
			"overlap_s":   rep.OverlapSeconds,
			"stolen_s":    rep.StolenSeconds,
			"bytes_moved": rep.Migration.BytesMoved,
		})
	}

	r.reg.ResetSamples()
	rep.Samples = r.ProfilingStop()
	rep.Phases = append(rep.Phases, r.phases[phaseStart:]...)
	// Stash this interval's heat for the next epoch's background
	// placement. A zero-sample interval carries no signal, so the next
	// epoch overlaps nothing (same idle-interval rule as RunEpoch).
	if rep.Samples > 0 {
		r.pendingSamples = rep.Samples
		r.pendingPeriod = r.prof.Config().Period
	}
	r.finishEpochScorecard(&rep, scrubStart)
	r.rec.End(0, "epoch", name, telemetry.Args{
		"epoch":      r.epoch,
		"samples":    rep.Samples,
		"optimized":  rep.Optimized,
		"overlapped": rep.Overlapped,
	})
	return rep, err
}

// reconcileOverlap settles the simulated clock at the epoch join. The
// body's phases already advanced the clock by their wall time; the
// background migration's modelled seconds were deliberately not added
// by commit (asyncActive was set). Whatever part of the migration fits
// under the phases is hidden — that is the point of overlapping — except
// for the configured StealFraction of it, charged back as the copy
// bandwidth stolen from the kernels; any excess beyond the phases' time
// surfaces in full, as it would on real hardware when the service
// threads outlive the interval.
func (r *Runtime) reconcileOverlap(rep *EpochReport, phaseStart int) {
	var phaseS float64
	for i := phaseStart; i < len(r.phases); i++ {
		phaseS += r.phases[i].Stats.WallSeconds
	}
	migS := rep.Migration.Seconds
	overlap := migS
	if phaseS < overlap {
		overlap = phaseS
	}
	excess := migS - overlap
	stolen := overlap * r.opts.Async.StealFraction
	rep.OverlapSeconds = overlap
	rep.StolenSeconds = stolen
	r.overlapTotalS += overlap
	r.stolenTotalS += stolen
	r.simNS.Add(uint64((excess + stolen) * 1e9))
	if r.rec.Enabled() {
		r.rec.Instant(0, "placement", "overlap-reconcile", telemetry.Args{
			"epoch":       rep.Epoch,
			"migration_s": migS,
			"overlap_s":   overlap,
			"excess_s":    excess,
			"stolen_s":    stolen,
		})
		r.rec.Counter(0, "metric", "stolen-bandwidth", telemetry.Args{
			"overlap_s_total": r.overlapTotalS,
			"stolen_s_total":  r.stolenTotalS,
		})
	}
}

// DrainAsync places the samples still pending from the last
// RunEpochAsync, synchronously (stop-the-world: the full migration time
// is charged, and the end-to-end invariant checker — including object
// checksums — runs). Call it after the epoch loop so the final
// interval's heat is not dropped. It is a no-op returning a zero report
// when nothing is pending.
func (r *Runtime) DrainAsync(ctx context.Context) (MigrationReport, error) {
	if r.resid == nil || !r.opts.Async.Enabled {
		return MigrationReport{}, fmt.Errorf("atmem: DrainAsync requires Options.Async.Enabled")
	}
	if r.pendingSamples == 0 {
		return MigrationReport{}, nil
	}
	period := r.pendingPeriod
	r.pendingSamples, r.pendingPeriod = 0, 0
	return r.optimizeGoverned(ctx, period, 0)
}

// OverlapSeconds returns the cumulative background-migration seconds
// hidden under concurrently-running phases so far.
func (r *Runtime) OverlapSeconds() float64 { return r.overlapTotalS }

// StolenSeconds returns the cumulative seconds charged to the simulated
// clock as bandwidth the background copies stole from running kernels.
func (r *Runtime) StolenSeconds() float64 { return r.stolenTotalS }
