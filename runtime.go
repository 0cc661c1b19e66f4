package atmem

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"atmem/internal/core"
	"atmem/internal/faultinject"
	"atmem/internal/governor"
	"atmem/internal/health"
	"atmem/internal/memsim"
	"atmem/internal/migrate"
	"atmem/internal/pebs"
	"atmem/internal/telemetry"
)

// Runtime is one ATMem session on one simulated HMS: it owns the memory
// system, the data-object registry, the sampling profiler, and the
// migration engine, and implements the paper's Listing-1 API
// (atmem_malloc/atmem_free/atmem_profiling_start/atmem_profiling_stop/
// atmem_optimize).
//
// A Runtime is not safe for concurrent use except inside RunPhase, which
// runs the supplied kernel on all simulated threads in parallel.
type Runtime struct {
	testbed Testbed
	opts    Options
	policy  PlacementPolicy
	sys     *memsim.System
	reg     *core.Registry
	prof    *pebs.Profiler
	engine  migrate.Engine
	faults  *faultinject.Injector

	objects   map[uint64]*Object
	accessors []*memsim.Accessor

	plan     *core.Plan
	migStats *migrate.Stats
	phases   []PhaseResult
	profiled bool

	// Governor state (nil/zero unless Options.Governor.Enabled; see
	// governor.go).
	govCfg  governor.Config
	resid   *core.Residency
	breaker *governor.Breaker
	gov     *govInfo
	epoch   int

	// Compiled-plan record/replay state (see replay.go). planRec is
	// non-nil while a governed run's placement decisions are being
	// recorded; armedPlan is non-nil while a cached plan is replaying
	// (planEpoch counts the plan epochs applied so far); planVerdict is
	// the last ArmPlan lookup outcome.
	planCache   *core.PlanCache
	planRec     *core.PlanRecorder
	armedPlan   *core.CompiledPlan
	planEpoch   int
	planVerdict core.LookupVerdict

	// Tier-health state (see health.go). board scores per-granule
	// errors and decides trust; scrub holds the CRC references and
	// backups of fast-resident chunks; heal accumulates the
	// self-healing counters surfaced on MigrationReport.Health.
	board *health.Scoreboard
	scrub *health.Scrubber
	heal  healthCounters

	// Telemetry state (see telemetry.go). simNS is the simulated-clock
	// cursor in nanoseconds, advanced by phase wall time and modelled
	// migration time; rec is nil when telemetry is off.
	rec           *telemetry.Recorder
	simNS         atomic.Uint64
	profOpen      bool
	faultsTraced  int
	breakerTraced int
	healthTraced  int

	// Live-metrics state (see metrics.go and debug.go). met is nil when
	// metrics are off; scorecards accumulates one placement-quality row
	// per governed epoch (regardless of met); lastScore is the atomic
	// slot the debug listener's /epochz reads mid-run; scrubChargedNS
	// totals the simulated time the CRC scrubber has charged (control
	// plane only — epoch boundaries diff it); debug is the opt-in HTTP
	// listener.
	met            *metricsSet
	scorecards     []Scorecard
	lastScore      atomic.Pointer[Scorecard]
	scrubChargedNS uint64
	debug          *debugServer

	// Multi-tenant attachment (see broker.go). tenant is non-nil while
	// the runtime is admitted to a broker: the memory system is the
	// broker's shared one, Malloc adopts allocations into the tenant's
	// memsim sub-ledger, the governed budget is capped by the granted
	// share, and Close departs. breakerOpenA mirrors the breaker's
	// open/half-open state atomically for the debug listener's /healthz
	// (the breaker itself is single-threaded control-plane state).
	tenant       *Tenant
	breakerOpenA atomic.Bool

	// Overlapped-placement state (see async.go). asyncActive is true
	// while a background placement worker may run concurrently with
	// kernels: migration then publishes invalidations through the
	// system's shootdown log instead of broadcasting directly, skips
	// the mid-kernel CRC check, and leaves the sim-clock reconciliation
	// to the epoch join. placeTID is the worker's telemetry track.
	asyncActive    atomic.Bool
	placeTID       int
	pendingSamples int     // attributed samples awaiting background placement
	pendingPeriod  uint64  // profiler period those samples were captured at
	overlapTotalS  float64 // cumulative overlapped migration seconds
	stolenTotalS   float64 // cumulative stolen-bandwidth seconds
}

// NewRuntime builds a runtime on the given testbed.
//
// Deprecated: use New with functional options (WithThreads, WithEngine,
// WithTelemetry, ...). This variadic-struct signature survives as a shim
// so existing call sites keep compiling; both constructors build the
// identical runtime.
func NewRuntime(tb Testbed, opts ...Options) (*Runtime, error) {
	var o Options
	if len(opts) > 1 {
		return nil, fmt.Errorf("atmem: NewRuntime accepts at most one Options")
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	return newRuntime(tb, o)
}

// newRuntime is the shared constructor behind New and NewRuntime.
func newRuntime(tb Testbed, o Options) (*Runtime, error) {
	o = o.withDefaults()
	p := tb.params
	if o.Tenant != nil {
		// A tenant runtime lives on its broker's shared system: the
		// broker's parameters are the ground truth (the testbed argument
		// only shapes this runtime's accessor count via Threads).
		p = o.Tenant.Broker().System().P
	}
	if o.Threads > 0 {
		p.Threads = o.Threads
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := o.Analyzer.Validate(); err != nil {
		return nil, err
	}
	pol, err := resolvePolicy(o)
	if err != nil {
		return nil, err
	}
	tb.params = p
	r := &Runtime{
		testbed: tb,
		opts:    o,
		policy:  pol,
		tenant:  o.Tenant,
		reg:     core.NewRegistry(o.Analyzer),
		objects: make(map[uint64]*Object),
	}
	if o.Tenant != nil {
		r.sys = o.Tenant.Broker().System()
	} else {
		r.sys = memsim.NewSystem(p)
	}
	if o.FaultSchedule != nil {
		r.faults = faultinject.New(*o.FaultSchedule)
		r.sys.SetFaultHook(r.faults)
	}
	if o.Health.Enabled {
		if err := o.Health.Policy.Validate(); err != nil {
			return nil, err
		}
		r.board = health.NewScoreboard(o.Health.Policy)
		if o.Health.Scrub {
			r.scrub = health.NewScrubber()
		}
	}
	if o.Governor.Enabled {
		gcfg := o.Governor.governorConfig()
		if err := gcfg.Validate(); err != nil {
			return nil, err
		}
		r.govCfg = gcfg
		r.resid = core.NewResidency()
		r.breaker = governor.NewBreaker(gcfg)
	}
	period := o.SamplePeriod
	if period == 0 {
		period = pebs.DefaultConfig().Period
	}
	r.prof = pebs.New(pebs.Config{
		Period:           period,
		SampleOverheadNS: o.SampleOverheadNS,
	}, p.ClockGHz)
	r.engine = o.newEngine(p.Threads)
	r.accessors = make([]*memsim.Accessor, p.Threads)
	for i := range r.accessors {
		r.accessors[i] = r.sys.NewAccessor()
		ts := r.prof.ThreadSampler(i)
		r.accessors[i].SetMissHook(ts.OnMiss)
	}
	r.planCache = o.PlanCache
	r.rec = o.Recorder
	r.rec.SetSimClock(r.simNS.Load)
	// One extra track past the simulated threads for the background
	// placement worker, so its spans never share a shard (single-writer
	// discipline) or a nesting level with the control track.
	r.placeTID = p.Threads
	r.rec.EnsureThreads(p.Threads + 1)
	tenantLabel := ""
	if o.Tenant != nil {
		tenantLabel = o.Tenant.Name()
	}
	r.met = newMetricsSet(o.Metrics, tenantLabel)
	if o.DebugAddr != "" {
		d, err := startDebugServer(o.DebugAddr, r)
		if err != nil {
			return nil, err
		}
		r.debug = d
	}
	return r, nil
}

// Testbed returns the testbed the runtime simulates.
func (r *Runtime) Testbed() Testbed { return r.testbed }

// Options returns the effective options.
func (r *Runtime) Options() Options { return r.opts }

// Threads returns the simulated thread count.
func (r *Runtime) Threads() int { return len(r.accessors) }

// System exposes the underlying simulator (for tests and the harness).
func (r *Runtime) System() *memsim.System { return r.sys }

// FaultEvents returns the faults injected so far under
// Options.FaultSchedule, in firing order (nil without a schedule).
func (r *Runtime) FaultEvents() []faultinject.Event {
	if r.faults == nil {
		return nil
	}
	return r.faults.Events()
}

// DisarmFaults permanently stops Options.FaultSchedule from injecting
// further faults; already-recorded FaultEvents survive. Scenarios use it
// to model a fault condition clearing mid-run (e.g. the governor's
// breaker must close again once a storm ends). No-op without a schedule.
func (r *Runtime) DisarmFaults() {
	if r.faults != nil {
		r.faults.Disarm()
	}
}

// ArmFaults appends fault rules to the injector at runtime. Chaos
// scenarios use it to aim range-scoped persistent or corruption faults
// at addresses that are only known after allocation (a schedule given
// at construction cannot reference them). An injector is created on
// first use if Options.FaultSchedule was nil.
func (r *Runtime) ArmFaults(faults ...faultinject.Fault) {
	if r.faults == nil {
		r.faults = faultinject.New(faultinject.Schedule{})
		r.sys.SetFaultHook(r.faults)
	}
	r.faults.Arm(faults...)
}

// Registry exposes the data-object registry (for tests and the harness).
func (r *Runtime) Registry() *core.Registry { return r.reg }

// allocTier resolves the policy's allocation-time placement for a new
// allocation. Unknown policies cannot reach here: the constructor
// validated the policy, so every allocation mode is a defined one.
func (r *Runtime) allocTier(size uint64) memsim.Tier {
	switch r.allocMode() {
	case AllocFast:
		return memsim.TierFast
	case AllocPrefer:
		// Mirror Alloc's mapping granularity: big objects are
		// huge-page backed and consume 2 MiB-rounded capacity.
		align := uint64(memsim.SmallPage)
		if size >= memsim.HugePage {
			align = memsim.HugePage
		}
		if r.sys.FreeCapacity(memsim.TierFast) >= memsim.RoundUp(size, align) {
			return memsim.TierFast
		}
		return memsim.TierSlow
	default:
		return memsim.TierSlow
	}
}

// Malloc is atmem_malloc (Listing 1): it allocates size bytes of
// simulated memory according to the placement policy and registers the
// object with the profiler/analyzer under the given name.
func (r *Runtime) Malloc(name string, size uint64) (*Object, error) {
	var base uint64
	var err error
	if r.allocMode() == AllocPrefer {
		// `numactl -p` semantics: fill the fast memory page by page
		// in allocation order, spilling to the large memory when full.
		base, err = r.sys.AllocPrefer(size)
	} else {
		base, err = r.sys.Alloc(size, r.allocTier(size))
	}
	if err != nil {
		return nil, fmt.Errorf("atmem: malloc %q: %w", name, err)
	}
	do, err := r.reg.Register(name, base, size)
	if err != nil {
		// Roll the mapping back: registration failures must not leak
		// address space. A failed rollback is reported to the caller
		// joined with the registration error, never as a crash.
		if ferr := r.sys.Free(base, size); ferr != nil {
			return nil, errors.Join(err,
				fmt.Errorf("atmem: malloc %q: rollback of mapping [%#x,+%#x) failed: %w",
					name, base, size, ferr))
		}
		return nil, err
	}
	o := &Object{
		rt:   r,
		name: name,
		base: base,
		size: size,
		data: make([]byte, size),
		do:   do,
	}
	r.objects[base] = o
	if r.tenant != nil {
		// Adopt the range into the tenant's memsim sub-ledger so the
		// broker can attribute fast-tier bytes and quarantine debits to
		// this tenant. Free disowns automatically.
		r.sys.AdoptRange(r.tenant.ID(), base, size)
	}
	return o, nil
}

// Free is atmem_free (Listing 1).
func (r *Runtime) Free(o *Object) error {
	if o == nil || o.rt != r {
		return fmt.Errorf("atmem: free of foreign object")
	}
	if _, ok := r.objects[o.base]; !ok {
		return fmt.Errorf("atmem: double free of %q", o.name)
	}
	if err := r.reg.Unregister(o.base); err != nil {
		return err
	}
	if err := r.sys.Free(o.base, o.size); err != nil {
		return err
	}
	if r.resid != nil {
		// Drop the freed range's residency and hysteresis state: a
		// reallocation at the same address must start cold.
		r.resid.Drop(o.base)
	}
	delete(r.objects, o.base)
	o.data = nil
	return nil
}

// SetCapacityReserve adjusts the fast-tier holdback between epochs —
// the shrinking-budget scenario (§1's shared server) the governor's
// pressure demotion absorbs. It does not move data by itself; the next
// Optimize sees the new budget.
func (r *Runtime) SetCapacityReserve(bytes uint64) {
	r.opts.CapacityReserve = bytes
}

// Objects returns the live objects in registration-independent (address)
// order via the registry.
func (r *Runtime) Objects() []*Object {
	out := make([]*Object, 0, len(r.objects))
	for _, do := range r.reg.Objects() {
		if o, ok := r.objects[do.Base]; ok {
			out = append(out, o)
		}
	}
	return out
}

// ProfilingStart is atmem_profiling_start (Listing 1): it clears previous
// samples, auto-adjusts the sampling period from the registered footprint
// (§5.1) unless a fixed period was configured, and enables collection.
func (r *Runtime) ProfilingStart() {
	if r.profOpen {
		// A restarted window discards the previous samples; close its
		// span so the trace stays balanced.
		r.rec.End(0, "profile", "window", telemetry.Args{"restarted": true})
		r.profOpen = false
	}
	r.prof.Reset()
	if r.opts.SamplePeriod == 0 {
		period := pebs.AutoPeriod(
			r.reg.TotalBytes(),
			r.sys.P.LineBytes,
			r.reg.TotalChunks(),
			r.Threads(),
			r.opts.Analyzer.TargetSamplesPerChunk,
			16, 1<<16,
		)
		r.prof.SetPeriod(period)
	}
	r.prof.Start()
	r.rec.Begin(0, "profile", "window", telemetry.Args{
		"period": r.prof.Config().Period,
	})
	r.profOpen = true
}

// ProfilingStop is atmem_profiling_stop (Listing 1): it disables
// collection and attributes the captured samples to data chunks.
// It returns the number of samples attributed to registered objects.
func (r *Runtime) ProfilingStop() int {
	r.prof.Stop()
	n := r.reg.AttributeSamples(r.prof.Samples())
	r.profiled = n > 0 || r.profiled
	if r.profOpen {
		r.rec.End(0, "profile", "window", telemetry.Args{
			"samples_attributed": n,
			"samples_captured":   r.prof.SampleCount(),
		})
		r.profOpen = false
	}
	r.emitChunkHeat()
	return n
}

// SamplePeriod returns the profiler period in force.
func (r *Runtime) SamplePeriod() uint64 { return r.prof.Config().Period }

// SampleCount returns the number of samples captured so far.
func (r *Runtime) SampleCount() int { return r.prof.SampleCount() }

// MissSample is one captured precise-address profiler event, exported
// for trace recording (see internal/trace and cmd/atmem-trace).
type MissSample struct {
	// Addr is the sampled data address.
	Addr uint64
	// Write marks store misses.
	Write bool
}

// Samples returns a copy of every profiler sample captured since the
// last ProfilingStart. With SamplePeriod 1 this is the complete demand
// -miss trace of the profiled phases.
func (r *Runtime) Samples() []MissSample {
	raw := r.prof.Samples()
	out := make([]MissSample, len(raw))
	for i, s := range raw {
		out[i] = MissSample{Addr: s.Addr, Write: s.Write}
	}
	return out
}

// ObjectManifest describes the registered data objects at the time of a
// trace capture, letting an offline analyzer rebuild the registry.
type ObjectManifest struct {
	Name string `json:"name"`
	Base uint64 `json:"base"`
	Size uint64 `json:"size"`
}

// Manifest returns the manifest of all live registered objects.
func (r *Runtime) Manifest() []ObjectManifest {
	var out []ObjectManifest
	for _, o := range r.Objects() {
		out = append(out, ObjectManifest{Name: o.Name(), Base: o.Base(), Size: o.Size()})
	}
	return out
}

// Optimize is atmem_optimize (Listing 1): it runs the two-stage analyzer
// over the attributed samples, then migrates the selected ranges onto the
// high-performance memory with the configured engine. It returns the
// migration statistics.
//
// Optimize consumes partial success: the engines are transactional per
// region, so recoverable faults (capacity exhaustion, injected faults)
// surface as retried/skipped counts in the MigrationReport, not as an
// error. TLB and cache entries are invalidated for exactly the slices
// whose remap committed — a region that failed and rolled back leaves
// the threads' translations valid. After migration a post-condition
// checker enforces the safety invariants (no leaked staging
// reservations, page-table totals matching the capacity ledger, object
// bytes bit-identical); a violation is a bug in the migration machinery
// and is returned as an error.
func (r *Runtime) Optimize() (MigrationReport, error) {
	return r.OptimizeCtx(context.Background())
}

// OptimizeCtx is Optimize with cancellation: a cancelled ctx stops the
// migration plan at the next region (or staging-slice) boundary, rolls
// a region caught mid-copy back via the per-region transaction, and
// reports the unfinished regions as skipped outcomes — in-band partial
// success, not an error.
func (r *Runtime) OptimizeCtx(ctx context.Context) (MigrationReport, error) {
	return r.place(ctx, r.prof.Config().Period, 0)
}

// place is the one placement stage, atmem_optimize proper: rank the
// attributed samples against the fast-tier budget, then commit the
// selection. One-shot Optimize, every governed epoch, the async worker
// and DrainAsync all run it. A governed runtime adds the governor's
// steps: the breaker decides whether the epoch migrates and observes
// the outcome, the plan is diffed against residency with pressure
// demotions (see governedSchedule), and committed promotions are scored
// and recorded. An ungoverned runtime promotes the plan's ranges as
// they are. The sampling period is a parameter (not read from the
// profiler) so the async pipeline can analyze a previous interval's
// samples while the profiler is already reconfigured for the next; tid
// selects the telemetry track (the placement track when running on the
// background service goroutine).
func (r *Runtime) place(ctx context.Context, period uint64, tid int) (MigrationReport, error) {
	if !r.profiled {
		return MigrationReport{}, fmt.Errorf("atmem: Optimize before any profiled samples were attributed")
	}
	// Serialize against co-tenants on a shared system: the staging
	// reservations and the global reserved==0 invariant assume one
	// migration in flight at a time. No-op on a solo runtime.
	r.lockPlacement()
	defer r.unlockPlacement()
	r.rec.Begin(tid, "optimize", "optimize", nil)
	defer func() {
		r.logNewFaults(tid)
		r.logBreakerTransitions(tid)
		r.logHealthTransitions(tid)
		r.rec.End(tid, "optimize", "optimize", r.optimizeSpanArgs())
	}()

	var gi *govInfo
	epoch := r.epoch
	if r.resid != nil {
		gi = &govInfo{decision: r.breaker.Decide(), epoch: r.breaker.Epoch()}
		r.gov = gi
		epoch = gi.epoch
		if gi.decision == governor.DecisionSkip {
			// Open breaker: no analysis, no migration, hysteresis
			// counters frozen. The epoch still ran its phases on the
			// degraded placement; the cooldown was counted by Decide.
			gi.skipped = true
			r.recordEmptyPlacement()
			return r.finishPlacement(tid, gi, 0), nil
		}
	}

	// The placement budget is an exact ledger identity: free capacity
	// beyond the reserve plus what registered objects already hold on
	// the fast tier. Re-selecting an already-resident chunk costs
	// nothing, so identical samples reproduce the identical plan across
	// epochs — the invariant that makes steady-state deltas empty.
	free := r.sys.FreeCapacity(memsim.TierFast)
	budget := free - min(free, r.opts.CapacityReserve) + r.registeredFastBytes()
	if r.tenant != nil {
		// Broker tenancy: the granted share — already debited by this
		// tenant's own quarantined bytes, so one tenant's fault storm
		// shrinks only its own budget — caps the placement budget.
		// Physical availability (what we hold plus the global headroom)
		// still bounds it from above.
		budget = min(budget, r.tenant.Budget())
	}
	if budget == 0 {
		if r.tenant == nil {
			// Nothing resident and no headroom (the reserve consumes the
			// whole fast tier; see Options.CapacityReserve): there is no
			// placement budget at all (core treats budget 0 as
			// unlimited, so this cannot fall through to the analyzer).
			// A clean no-op placement.
			r.recordEmptyPlacement()
			if gi != nil {
				r.breaker.Observe(false)
			}
			return r.finishPlacement(tid, gi, 0), nil
		}
		// A tenant with no budget still runs the analyzer with a 1-byte
		// budget: for a shed or fully-debited tenant the empty selection
		// lets the pressure demotions drain its residency, and for a
		// fresh tenant the clipped plan's MarginalDensity is the "I am
		// hungry" signal the arbiter needs before it can grant a first
		// share.
		budget = 1
	}
	analyzeStart := time.Now()
	plan, err := r.policy.Rank(core.PolicyProfile{
		Registry: r.reg,
		Period:   period,
		Epoch:    epoch,
	}, budget, r.stageObserver(tid))
	analyzeNS := uint64(time.Since(analyzeStart))
	if err != nil {
		return MigrationReport{}, err
	}
	if r.opts.BandwidthAware && !r.sys.P.SharedChannels {
		trimPlanForBandwidth(plan, &r.sys.P)
	}
	r.plan = plan

	var sched migrate.Schedule
	if gi != nil {
		sched = r.governedSchedule(plan, gi)
	} else {
		for i := range plan.Objects {
			for _, rg := range plan.Objects[i].Ranges {
				sched.Promotions = append(sched.Promotions, migrate.Region{Base: rg.Base, Size: rg.Size})
			}
		}
	}
	res, err := r.commitPlacement(ctx, tid, gi, sched, r.objectChecksums())
	if gi != nil {
		if err != nil {
			// Unrecoverable (failed rollback) or a broken invariant:
			// degrade the breaker and surface the error.
			r.breaker.Observe(true)
		} else {
			// Promotion outcomes are health observations: committed
			// promotions vouch for their target granules, skipped ones
			// indict them.
			r.observeMigrationHealth(res)
			// Plan recording captures exactly what committed this epoch
			// — the decisions a replay must reproduce (see replay.go).
			r.recordCommitted(res.Promotions.Moved, res.Demotions.Moved)
			// A cancelled plan skips regions deliberately; that is the
			// caller's choice, not a failing migration path, so it must
			// not trip the breaker.
			r.breaker.Observe(res.Merged.RegionsSkipped > 0 && ctx.Err() == nil)
		}
	}
	return r.finishPlacement(tid, gi, analyzeNS), err
}

// commitPlacement is the tail every placement shares, ranked (place) or
// replayed (applyPlanEpoch): the health veto, the half-open breaker's
// probe shrink, the commit, and the stats the report reads. gi is nil
// on an ungoverned runtime.
func (r *Runtime) commitPlacement(ctx context.Context, tid int, gi *govInfo, sched migrate.Schedule, pre map[uint64]uint32) (migrate.ScheduleResult, error) {
	// Health veto: never promote onto quarantined or distrusted granules
	// (a replayed plan included: pages quarantined since the recording
	// must never receive a promotion).
	sched.Promotions = r.filterPromotions(tid, sched.Promotions)
	if gi != nil {
		gi.emptyDelta = sched.Empty()
		if gi.decision == governor.DecisionProbe && !sched.Empty() {
			// Half-open: probe with the single smallest region (a
			// promotion if there is one — it exercises the fast tier the
			// failures came from) instead of the whole schedule.
			bySize := func(a, b migrate.Region) int { return cmp.Compare(a.Size, b.Size) }
			if len(sched.Promotions) > 0 {
				sched = migrate.Schedule{Promotions: []migrate.Region{slices.MinFunc(sched.Promotions, bySize)}}
			} else {
				sched = migrate.Schedule{Demotions: []migrate.Region{slices.MinFunc(sched.Demotions, bySize)}}
			}
		}
	}
	res, err := r.commit(ctx, tid, sched, pre)
	r.migStats = &res.Merged
	if gi != nil && err == nil {
		gi.promotedBytes = res.Promotions.BytesMoved
		gi.demotedBytes = res.Demotions.BytesMoved
		gi.regionsDemoted = len(res.Demotions.Moved)
	}
	return res, err
}

// finishPlacement closes a placement: it settles the governed report
// fields, records the placement's metrics (analyzeNS is the analyzer's
// host wall time, 0 when no analysis ran), and returns the report.
func (r *Runtime) finishPlacement(tid int, gi *govInfo, analyzeNS uint64) MigrationReport {
	if gi != nil {
		gi.state = r.breaker.State()
		gi.residentBytes = r.resid.ResidentBytes()
		// Mirror the breaker state atomically for /healthz, which reads
		// from the debug listener's goroutine mid-run.
		r.breakerOpenA.Store(gi.state != governor.StateClosed)
	}
	r.recordOptimizeMetrics(tid, analyzeNS)
	return r.migrationReport()
}

// recordEmptyPlacement reports a placement that had no budget to spend:
// an empty plan over the registered footprint and zero migration stats.
func (r *Runtime) recordEmptyPlacement() {
	r.plan = &core.Plan{TotalBytes: r.reg.TotalBytes()}
	r.migStats = &migrate.Stats{Engine: r.engine.Name()}
}

// commit is the one path that moves bytes: every placement (one-shot,
// governed, replayed) and every health evacuation executes its schedule
// here. It runs the schedule through the transactional engine, charges
// the simulated clock (stop-the-world only; the overlapped pipeline
// reconciles at the epoch join), invalidates exactly the committed
// slices, keeps governed residency following commits, and finally runs
// the post-migration invariant checker. pre is the object-checksum
// snapshot to compare against, or nil to check only the ledger half (see
// verifyMigrationInvariants). Callers decide what to move and what the
// outcome means; the returned result is populated even on error.
func (r *Runtime) commit(ctx context.Context, tid int, sched migrate.Schedule, pre map[uint64]uint32) (migrate.ScheduleResult, error) {
	var sink migrate.EventSink
	if r.rec.Enabled() {
		start := r.simNS.Load()
		sink = func(ev migrate.Event) { r.emitMigrationEvent(tid, start, ev) }
	}
	res, err := migrate.RunSchedule(ctx, r.engine, r.sys, sched, sink)
	if !r.asyncActive.Load() {
		r.simNS.Add(uint64(res.Merged.Seconds * 1e9))
	}
	if err != nil {
		// Only unrecoverable failures (a failed rollback) reach here;
		// recoverable faults degraded into per-region outcomes.
		return res, fmt.Errorf("atmem: migration: %w", err)
	}
	r.invalidateMoved(res.Merged.Moved)
	if r.resid != nil {
		// Residency follows commits, never plans: a rolled-back region
		// keeps both its placement and its residency.
		for _, rg := range res.Demotions.Moved {
			r.markMovedRegion(rg, false)
		}
		for _, rg := range res.Promotions.Moved {
			r.markMovedRegion(rg, true)
		}
	}
	if err := r.verifyMigrationInvariants(pre); err != nil {
		return res, fmt.Errorf("atmem: post-migration invariant violated: %w", err)
	}
	return res, nil
}

// invalidateMoved drops the stale TLB and cache entries of exactly the
// committed migration slices (rolled-back and skipped regions kept their
// placement, so their translations stay valid). Stop-the-world callers
// broadcast directly into every accessor; while a background placement
// worker runs, accessors are live on other goroutines, so the ranges go
// through the system's shootdown log and each accessor drains them at
// its next access.
func (r *Runtime) invalidateMoved(moved []migrate.Region) {
	if r.asyncActive.Load() {
		for _, rg := range moved {
			r.sys.Shootdown(rg.Base, rg.Size)
		}
		return
	}
	for _, a := range r.accessors {
		for _, rg := range moved {
			a.InvalidateTLBRange(rg.Base, rg.Size)
			a.InvalidateCacheRange(rg.Base, rg.Size)
		}
	}
}

// crcTable backs the object-data checksums of the migration invariant
// checker; Castagnoli is hardware-accelerated on the platforms we run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// objectChecksums fingerprints every registered object's byte backing.
// It returns nil while a background placement worker overlaps running
// kernels: the kernels are mutating object bytes concurrently, so a
// checksum would race; migration itself never touches object data
// (virtual addresses are stable), and the end-to-end CRC comparison
// runs at epoch boundaries instead.
func (r *Runtime) objectChecksums() map[uint64]uint32 {
	if r.asyncActive.Load() {
		return nil
	}
	out := make(map[uint64]uint32, len(r.objects))
	for base, o := range r.objects {
		if o.data != nil {
			out[base] = crc32.Checksum(o.data, crcTable)
		}
	}
	return out
}

// verifyMigrationInvariants is the post-migration checker commit runs
// after every schedule: whatever mix of migrated, retried, and skipped
// regions it produced, no staging reservation outlives the migration and
// the page table and the capacity ledger agree (the ledger half, always
// checked); and, when pre is non-nil, no object's bytes changed
// (migration remaps pages; it never edits values).
func (r *Runtime) verifyMigrationInvariants(pre map[uint64]uint32) error {
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		if res := r.sys.Reserved(t); res != 0 {
			return fmt.Errorf("leaked %d reserved bytes on tier %s", res, t)
		}
	}
	if err := r.sys.CheckConsistency(); err != nil {
		return err
	}
	for base, want := range pre {
		o, ok := r.objects[base]
		if !ok || o.data == nil {
			return fmt.Errorf("object at %#x vanished during migration", base)
		}
		if got := crc32.Checksum(o.data, crcTable); got != want {
			return fmt.Errorf("object %q bytes changed during migration (crc %#x -> %#x)", o.name, want, got)
		}
	}
	return nil
}

// Plan returns the analyzer's most recent placement plan (nil before the
// first Optimize).
func (r *Runtime) Plan() *core.Plan { return r.plan }

// Ctx is the per-thread execution context handed to RunPhase kernels.
type Ctx struct {
	acc *memsim.Accessor
	// ID is this simulated thread's index in [0, NumThreads).
	ID int
	// NumThreads is the simulated thread count of the phase.
	NumThreads int
}

// Compute charges cycles of ALU/control work to the thread.
func (c *Ctx) Compute(cycles float64) { c.acc.Compute(cycles) }

// Load simulates a raw read of size bytes at a virtual address. Most code
// should use the typed Array views instead.
func (c *Ctx) Load(addr uint64, size uint32) { c.acc.Load(addr, size) }

// Store simulates a raw write of size bytes at a virtual address.
func (c *Ctx) Store(addr uint64, size uint32) { c.acc.Store(addr, size) }

// LoadRange simulates count sequential raw reads of elemSize bytes
// starting at addr, charged per cache line (see Accessor.LoadRange).
func (c *Ctx) LoadRange(addr uint64, elemSize uint32, count int) {
	c.acc.LoadRange(addr, elemSize, count)
}

// StoreRange simulates count sequential raw writes of elemSize bytes
// starting at addr.
func (c *Ctx) StoreRange(addr uint64, elemSize uint32, count int) {
	c.acc.StoreRange(addr, elemSize, count)
}

// Range splits n work items into this thread's contiguous share,
// returning [lo, hi).
func (c *Ctx) Range(n int) (lo, hi int) {
	per := (n + c.NumThreads - 1) / c.NumThreads
	lo = min(c.ID*per, n)
	return lo, min(lo+per, n)
}

// RunPhase executes kernel on every simulated thread in parallel, with
// counters reset at phase entry and cache/TLB state carried over from
// previous phases (the paper measures the warm second iteration, §6). It
// returns the phase's simulated time and event statistics.
func (r *Runtime) RunPhase(name string, kernel func(c *Ctx)) PhaseResult {
	r.rec.Begin(0, "phase", name, nil)
	// With no background placement worker, nothing can publish a
	// shootdown or install a quiesce gate while the phase runs, so the
	// accessors are sealed for the duration: the per-access cross-thread
	// check disappears entirely and every hot-path touch is
	// accessor-private. Under async placement the full one-load protocol
	// stays on — and likewise on a broker tenant, whose co-tenants may
	// migrate their own ranges on the shared system while this phase
	// runs.
	sealed := !r.asyncActive.Load() && r.tenant == nil
	for _, a := range r.accessors {
		a.ResetCounters()
		// Apply shootdowns published since the thread's last access, so
		// an idle thread does not carry stale translations into the
		// phase (its applied count lands in this phase's counters).
		a.DrainShootdowns()
		a.SetSealed(sealed)
	}
	var wg sync.WaitGroup
	for i := range r.accessors {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kernel(&Ctx{acc: r.accessors[i], ID: i, NumThreads: len(r.accessors)})
		}(i)
	}
	wg.Wait()
	for _, a := range r.accessors {
		a.SetSealed(false)
	}
	pr := PhaseResult{
		Name:  name,
		Stats: r.sys.ReducePhase(r.accessors),
	}
	r.phases = append(r.phases, pr)
	// The simulated clock advances by the phase's wall time; the span
	// End therefore lands at the phase's end on the sim axis.
	r.simNS.Add(uint64(pr.Stats.WallSeconds * 1e9))
	r.rec.End(0, "phase", name, telemetry.Args{
		"wall_s":     pr.Stats.WallSeconds,
		"accesses":   pr.Stats.Accesses,
		"llc_misses": pr.Stats.LLCMisses,
		"tlb_misses": pr.Stats.TLBMisses,
	})
	r.emitPhaseMetrics(&pr)
	r.recordPhaseMetrics(&pr)
	return pr
}

// Phases returns the results of all phases run so far.
func (r *Runtime) Phases() []PhaseResult { return r.phases }

// SimSeconds returns the simulated clock: total simulated seconds of
// every phase plus the charged share of every migration so far (the
// full modelled time under stop-the-world placement; only the excess
// and stolen-bandwidth share under overlapped placement).
func (r *Runtime) SimSeconds() float64 { return float64(r.simNS.Load()) / 1e9 }
