package harness

import (
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strings"

	"atmem"
	"atmem/apps"
	"atmem/internal/faultinject"
	"atmem/internal/governor"
	"atmem/internal/health"
	"atmem/internal/memsim"
	"atmem/internal/telemetry"
)

// This file implements the chaos-soak scenario: the adaptive-pressure
// workload shift (BFS warm-up → PageRank) run under an escalating
// persistent-fault and corruption schedule, with the tier-health
// subsystem (scoreboard, scrubber, quarantine ledger) switched on. It
// is the end-to-end proof of self-healing placement: the run must
// finish with a meaningful share of the fast tier quarantined, every
// injected corruption detected and demoted, no placement decision
// landing on retired pages, and results bit-identical to a fault-free
// run of the same epoch sequence.

// ChaosScenario configures one chaos-soak run.
type ChaosScenario struct {
	// Dataset names the input graph (both kernels load their own copy).
	Dataset string
	// WarmEpochs are fault-free BFS epochs that let the governor promote
	// a first hot set (and the scrubber snapshot it). The fault schedule
	// is armed after the last warm epoch, once object addresses and a
	// resident footprint exist to aim at.
	WarmEpochs int
	// StormEpochs are PR epochs under the armed schedule: a persistent
	// retier fault over the PR rank array (every promotion or demotion
	// touching it fails), escalating corruption waves over the PR edge
	// array, and one latency-degradation order. The schedule is disarmed
	// after the last storm epoch.
	StormEpochs int
	// CoolEpochs are fault-free PR epochs after the storm: the breaker
	// must recover and placement must keep routing around the retired
	// pages.
	CoolEpochs int
	// Governor configures the placement governor; Enabled is forced on.
	Governor atmem.GovernorOptions
	// Health is the scoreboard policy (zero fields take the health
	// package defaults). The default scenario shortens the persistence
	// threshold so the storm condemns granules within its window.
	Health health.Policy
	// QuarantineFraction is the share of the fast tier's capacity that
	// must be quarantined by the end of the storm (the acceptance bar;
	// default 0.05).
	QuarantineFraction float64
	// TraceDir, when non-empty, records telemetry on the faulted run and
	// writes the trace artifacts there.
	TraceDir string
}

// DefaultChaosScenario returns the scenario the chaos-soak experiment
// and the CI chaos job run: twitter (the largest graph whose two
// per-kernel copies still leave fast-tier headroom) with a shortened
// persistence threshold so the storm's failures condemn within the
// window, and a breaker threshold loose enough that promotion keeps
// being attempted while the storm escalates.
func DefaultChaosScenario() ChaosScenario {
	return ChaosScenario{
		Dataset:     "twitter",
		WarmEpochs:  3,
		StormEpochs: 8,
		CoolEpochs:  5,
		Governor: atmem.GovernorOptions{
			Enabled:           true,
			HighWatermark:     0.90,
			LowWatermark:      0.70,
			DemoteAfterEpochs: 2,
			BreakerThreshold:  4,
			BreakerCooldown:   1,
			MaxCooldown:       4,
		},
		Health: health.Policy{
			Window:              6,
			PersistentThreshold: 2,
			BackoffEpochs:       1,
			MaxBackoff:          4,
		},
		QuarantineFraction: 0.05,
	}
}

// ChaosEpoch is one epoch of the faulted run, for reports and asserts.
// The health counters are cumulative (the ledger only grows).
type ChaosEpoch struct {
	Epoch    int
	Workload string
	Seconds  float64
	// Quarantined and QuarantinedRanges mirror the ledger after the
	// epoch's migration and heal pass.
	Quarantined       uint64
	QuarantinedRanges int
	// CorruptedChunks, Detections, and Repairs track the corruption
	// pipeline; Vetoed and Condemned track the scoreboard's vetoes and
	// persistent-bad granules.
	CorruptedChunks int
	Detections      int
	Repairs         int
	Vetoed          int
	Condemned       int
	Breaker         string
	Outcome         string
}

// ChaosResult is the outcome of one chaos-soak scenario.
type ChaosResult struct {
	// Epochs are the faulted run's per-epoch records.
	Epochs []ChaosEpoch
	// BaselineCRC and ChaosCRC checksum every registered object (graph
	// arrays and kernel state) after the fault-free and faulted runs of
	// the same epoch sequence; self-healing means they are identical.
	BaselineCRC, ChaosCRC uint32
	// Health is the faulted run's final health snapshot.
	Health atmem.HealthStats
	// Transitions is the faulted run's breaker transition log.
	Transitions []governor.Transition
	// FinalState is the breaker state after the last epoch.
	FinalState governor.State
	// QuarantineTarget is the byte bar derived from QuarantineFraction;
	// TargetEpoch is the epoch that first crossed it (0 if never).
	QuarantineTarget uint64
	TargetEpoch      int
	// FaultEvents counts injector fires over the whole storm.
	FaultEvents int
	// TracePath is the written Chrome trace (empty without TraceDir).
	TracePath string
}

// chaosSide is one run (baseline or faulted) of the soak's shared epoch
// sequence.
type chaosSide struct {
	epochs      []ChaosEpoch
	crc         uint32
	ranks       []float64
	health      atmem.HealthStats
	transitions []governor.Transition
	finalState  governor.State
	faultEvents int
	targetEpoch int
	tracePath   string
}

// RunChaosSoak executes the scenario twice — fault-free, then under the
// escalating schedule — on fresh runtimes with the health subsystem on,
// and verifies the self-healing contract: the faulted run completes,
// crosses the quarantine bar during the storm, detects and repairs
// every injected corruption, never re-hosts a retired page, and ends
// with every object byte-identical to the fault-free run.
func RunChaosSoak(sc ChaosScenario) (*ChaosResult, error) {
	if sc.QuarantineFraction == 0 {
		sc.QuarantineFraction = 0.05
	}
	sc.Governor.Enabled = true

	base, err := sc.run(false)
	if err != nil {
		return nil, fmt.Errorf("harness: chaos baseline: %w", err)
	}
	faulted, err := sc.run(true)
	if err != nil {
		return nil, fmt.Errorf("harness: chaos faulted: %w", err)
	}

	res := &ChaosResult{
		Epochs:      faulted.epochs,
		BaselineCRC: base.crc,
		ChaosCRC:    faulted.crc,
		Health:      faulted.health,
		Transitions: faulted.transitions,
		FinalState:  faulted.finalState,
		TargetEpoch: faulted.targetEpoch,
		FaultEvents: faulted.faultEvents,
		TracePath:   faulted.tracePath,
	}
	fastCap := memsim.NVMDRAMParams().Tiers[memsim.TierFast].CapacityBytes
	res.QuarantineTarget = uint64(sc.QuarantineFraction * float64(fastCap))

	// The acceptance bars, in dependency order. Everything below is a
	// hard failure: the experiment's value is that these cannot rot.
	h := res.Health
	if h.CorruptedChunks == 0 {
		return res, fmt.Errorf("harness: chaos: no corruption order landed (schedule mis-aimed?)")
	}
	if h.Scrub.Detections != h.CorruptedChunks {
		return res, fmt.Errorf("harness: chaos: %d corrupted chunks but %d scrub detections — corruption escaped the scrubber",
			h.CorruptedChunks, h.Scrub.Detections)
	}
	if h.Scrub.Repairs != h.Scrub.Detections {
		return res, fmt.Errorf("harness: chaos: %d detections but %d repairs", h.Scrub.Detections, h.Scrub.Repairs)
	}
	if h.EmergencyDemotions != h.Scrub.Detections {
		return res, fmt.Errorf("harness: chaos: %d detections but %d emergency demotions",
			h.Scrub.Detections, h.EmergencyDemotions)
	}
	if h.Board.Condemned == 0 {
		return res, fmt.Errorf("harness: chaos: persistent storm never condemned a granule: %+v", h.Board)
	}
	if h.PromotionsVetoed == 0 {
		return res, fmt.Errorf("harness: chaos: no promotion was ever vetoed")
	}
	if h.Quarantined < res.QuarantineTarget {
		return res, fmt.Errorf("harness: chaos: quarantined %d bytes, below the %d-byte bar (%.0f%% of the fast tier)",
			h.Quarantined, res.QuarantineTarget, 100*sc.QuarantineFraction)
	}
	lastStorm := sc.WarmEpochs + sc.StormEpochs
	if res.TargetEpoch == 0 || res.TargetEpoch > lastStorm {
		return res, fmt.Errorf("harness: chaos: quarantine bar crossed at epoch %d, after the storm (epoch %d) — not mid-run",
			res.TargetEpoch, lastStorm)
	}
	if res.ChaosCRC != res.BaselineCRC {
		return res, fmt.Errorf("harness: chaos: results diverged from the fault-free run: %08x vs %08x",
			res.ChaosCRC, res.BaselineCRC)
	}
	// The PR ranks are compared value-wise at the kernel's own
	// validation tolerance (atomic float accumulation order varies with
	// thread interleaving, so bit-identity is not defined for them).
	if len(base.ranks) != len(faulted.ranks) {
		return res, fmt.Errorf("harness: chaos: rank vector length %d vs %d", len(faulted.ranks), len(base.ranks))
	}
	for v := range base.ranks {
		want, got := base.ranks[v], faulted.ranks[v]
		if diff := got - want; diff > 1e-12+1e-6*math.Abs(want) || -diff > 1e-12+1e-6*math.Abs(want) {
			return res, fmt.Errorf("harness: chaos: rank[%d] diverged from the fault-free run: %g vs %g", v, got, want)
		}
	}
	return res, nil
}

// run executes the scenario's epoch sequence once. The baseline and
// faulted sides share everything — runtime options, kernels, epoch
// names — except the armed schedule, so the final object bytes are
// comparable checksum-for-checksum.
func (sc ChaosScenario) run(faulted bool) (*chaosSide, error) {
	opts := []atmem.Option{
		atmem.WithPlacementPolicy(atmem.PaperPolicy()),
		atmem.WithGovernor(sc.Governor),
		atmem.WithScrubber(),
		atmem.WithHealthPolicy(sc.Health),
	}
	trace := faulted && sc.TraceDir != ""
	if trace {
		opts = append(opts, atmem.WithTelemetry(telemetry.NewRecorder()))
	}
	rt, err := atmem.New(atmem.NVMDRAM(), opts...)
	if err != nil {
		return nil, err
	}
	bfs, err := apps.New("bfs")
	if err != nil {
		return nil, err
	}
	pr, err := apps.New("pr")
	if err != nil {
		return nil, err
	}
	if err := bfs.Setup(rt, sc.Dataset); err != nil {
		return nil, fmt.Errorf("bfs setup: %w", err)
	}
	if err := pr.Setup(rt, sc.Dataset); err != nil {
		return nil, fmt.Errorf("pr setup: %w", err)
	}

	side := &chaosSide{}
	runOne := func(workload string, kern apps.Kernel) error {
		var iter apps.IterationResult
		name := fmt.Sprintf("%s-%d", workload, rt.Epoch()+1)
		er, err := rt.RunEpoch(name, func() { iter = kern.RunIteration(rt) })
		if err != nil {
			return fmt.Errorf("epoch %d (%s): %w", rt.Epoch(), workload, err)
		}
		st := rt.HealthStats()
		m := er.Migration
		outcome := "moved"
		switch {
		case m.BreakerSkipped:
			outcome = "skipped"
		case m.DeltaEmpty:
			outcome = "converged"
		case m.RegionsSkipped > 0:
			outcome = "degraded"
		}
		side.epochs = append(side.epochs, ChaosEpoch{
			Epoch:             er.Epoch,
			Workload:          workload,
			Seconds:           iter.Seconds,
			Quarantined:       st.Quarantined,
			QuarantinedRanges: st.QuarantinedRanges,
			CorruptedChunks:   st.CorruptedChunks,
			Detections:        st.Scrub.Detections,
			Repairs:           st.Scrub.Repairs,
			Vetoed:            st.PromotionsVetoed,
			Condemned:         st.Board.Condemned,
			Breaker:           m.Breaker,
			Outcome:           outcome,
		})
		// The ledger invariant, asserted after every single epoch: a
		// retired page never hosts fast bytes again, no matter what the
		// governor, the scrubber, or a replayed plan just did.
		for _, qr := range rt.System().QuarantinedRanges() {
			if on := rt.System().BytesOnTier(qr.Base, qr.Size); on[memsim.TierFast] != 0 {
				return fmt.Errorf("epoch %d: quarantined range [%#x,+%#x) hosts %d fast bytes",
					rt.Epoch(), qr.Base, qr.Size, on[memsim.TierFast])
			}
		}
		fastCap := memsim.NVMDRAMParams().Tiers[memsim.TierFast].CapacityBytes
		if side.targetEpoch == 0 && float64(st.Quarantined) >= sc.QuarantineFraction*float64(fastCap) {
			side.targetEpoch = er.Epoch
		}
		return nil
	}

	for i := 0; i < sc.WarmEpochs; i++ {
		if err := runOne("bfs", bfs); err != nil {
			return nil, err
		}
	}
	if faulted {
		if err := armChaosFaults(rt, sc); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sc.StormEpochs; i++ {
		if err := runOne("pr", pr); err != nil {
			return nil, err
		}
	}
	if faulted {
		rt.DisarmFaults()
	}
	for i := 0; i < sc.CoolEpochs; i++ {
		if err := runOne("pr", pr); err != nil {
			return nil, err
		}
	}

	// Safety nets, both sides: results validate, no leaked staging
	// reservation, and the capacity ledger balances (including the
	// quarantined slice).
	if err := bfs.Validate(); err != nil {
		return nil, err
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		if leaked := rt.System().Reserved(t); leaked != 0 {
			return nil, fmt.Errorf("leaked %d reserved bytes on %s", leaked, t)
		}
	}
	if err := rt.System().CheckConsistency(); err != nil {
		return nil, err
	}

	side.crc = resultCRC(rt)
	if prk, ok := pr.(*apps.PageRank); ok {
		side.ranks = append([]float64(nil), prk.Ranks()...)
	}
	side.health = rt.HealthStats()
	side.transitions = rt.BreakerTransitions()
	side.finalState = rt.BreakerState()
	side.faultEvents = len(rt.FaultEvents())
	if trace {
		stem := fmt.Sprintf("nvm-chaos-soak-%s-%08x", sc.Dataset,
			crc32.ChecksumIEEE([]byte(fmt.Sprintf("%+v", sc))))
		path, err := writeTraceArtifactsStem(rt, sc.TraceDir, stem)
		if err != nil {
			return nil, err
		}
		side.tracePath = path
	}
	return side, nil
}

// armChaosFaults aims the escalating schedule at addresses that only
// exist after setup, using the run's actual residency: by the end of
// the BFS warm phase the whole BFS working set (offsets, edges, level)
// is fast-resident and scrub-tracked, while the PR arrays are about to
// be promoted for the first time.
//
//   - Persistent retier faults over the PR hot arrays (offsets, rank,
//     next): every promotion into them fails from the first storm
//     epoch, feeding the scoreboard until their granules are condemned
//     and their address ranges retired.
//   - Escalating corruption waves over the BFS-era residency (Nth
//     counts the injector's own epoch clock, which starts at arming):
//     storm epoch 1 flips bytes in a quarter of the BFS edge array,
//     epoch 2 in all of it plus the offsets, epoch 4 anywhere still
//     fast-resident. Every hit chunk must be detected, repaired,
//     demoted, and its pages retired.
//   - One latency-degradation order over the PR edge array (factor 4)
//     at storm epoch 3, exercising the degraded-range accounting on a
//     range the remaining epochs keep reading.
func armChaosFaults(rt *atmem.Runtime, sc ChaosScenario) error {
	obj := func(name string) (base, size uint64, err error) {
		for _, o := range rt.Objects() {
			if o.Name() == name {
				return o.Base(), o.Size(), nil
			}
		}
		return 0, 0, fmt.Errorf("chaos: no object %q registered", name)
	}
	prOffB, prOffS, err := obj("pr.offsets")
	if err != nil {
		return err
	}
	prRankB, prRankS, err := obj("pr.rank")
	if err != nil {
		return err
	}
	prNextB, prNextS, err := obj("pr.next")
	if err != nil {
		return err
	}
	prEdgesB, prEdgesS, err := obj("pr.edges")
	if err != nil {
		return err
	}
	bfsEdgesB, bfsEdgesS, err := obj("bfs.edges")
	if err != nil {
		return err
	}
	bfsOffB, bfsOffS, err := obj("bfs.offsets")
	if err != nil {
		return err
	}
	// The final wave sweeps the whole registered address space: whatever
	// is still fast-resident by then is fair game.
	var spanLo, spanHi uint64
	for _, o := range rt.Objects() {
		if spanHi == 0 || o.Base() < spanLo {
			spanLo = o.Base()
		}
		if end := o.Base() + o.Size(); end > spanHi {
			spanHi = end
		}
	}
	rt.ArmFaults(
		faultinject.Fault{Kind: faultinject.Persistent, Op: faultinject.OpRetier,
			Base: prOffB, Size: prOffS},
		faultinject.Fault{Kind: faultinject.Persistent, Op: faultinject.OpRetier,
			Base: prRankB, Size: prRankS},
		faultinject.Fault{Kind: faultinject.Persistent, Op: faultinject.OpRetier,
			Base: prNextB, Size: prNextS},
		faultinject.Fault{Kind: faultinject.Corrupt, Nth: 1,
			Base: bfsEdgesB, Size: bfsEdgesS / 4},
		faultinject.Fault{Kind: faultinject.Corrupt, Nth: 2,
			Base: bfsEdgesB, Size: bfsEdgesS},
		faultinject.Fault{Kind: faultinject.Corrupt, Nth: 2,
			Base: bfsOffB, Size: bfsOffS},
		faultinject.Fault{Kind: faultinject.Corrupt, Nth: 4,
			Base: spanLo, Size: spanHi - spanLo},
		faultinject.Fault{Kind: faultinject.Degrade, Nth: 3, Factor: 4,
			Base: prEdgesB, Size: prEdgesS},
	)
	return nil
}

// resultCRC checksums every deterministic registered object — the
// graph arrays and the kernels' converged integer results — in name
// order. Two runs of the same epoch sequence must produce the same
// value: placement, faults, and healing may never change a single
// result byte. Excluded are the scratch arrays (frontiers, merge
// buffers, claim stamps): the fixed point they drive toward is exact,
// but their residue — which round each vertex was claimed in, what a
// merge buffer held past its final length — depends on thread
// interleaving. The PR rank arrays and BC's accumulators are excluded
// for the same reason at the value level: atomic float adds reorder
// between runs; they are compared value-wise instead (see RunChaosSoak)
// and against the serial reference by Validate.
func resultCRC(rt *atmem.Runtime) uint32 {
	objs := rt.Objects()
	sort.Slice(objs, func(i, j int) bool { return objs[i].Name() < objs[j].Name() })
	crc := crc32.NewIEEE()
	for _, o := range objs {
		if scratchObject(o.Name()) {
			continue
		}
		crc.Write(o.Bytes())
	}
	return crc.Sum32()
}

// scratchObject reports whether the named object's bytes are
// interleaving-dependent and must stay out of determinism checksums.
func scratchObject(name string) bool {
	for _, suffix := range []string{".frontier", ".next", ".stamp"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	switch name {
	case "pr.rank", "bc.sigma", "bc.delta", "bc.score":
		return true
	}
	return false
}

// chaosSoak is the experiment wrapper: one faulted run rendered as one
// row per epoch, with the fault-free comparison in the note.
func chaosSoak(s *Suite) ([]*Report, error) {
	sc := DefaultChaosScenario()
	sc.TraceDir = s.TraceDir
	res, err := RunChaosSoak(sc)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "chaos-soak",
		Title: "Chaos soak: self-healing placement under an escalating persistent-fault and corruption storm (twitter, NVM-DRAM)",
		Columns: []string{"epoch", "workload", "iter(s)", "quarantined",
			"ranges", "detected", "repaired", "vetoed", "condemned",
			"breaker", "outcome"},
	}
	for _, e := range res.Epochs {
		rep.AddRow(
			fmt.Sprintf("%d", e.Epoch), e.Workload, secs(e.Seconds),
			fmt.Sprintf("%d", e.Quarantined),
			fmt.Sprintf("%d", e.QuarantinedRanges),
			fmt.Sprintf("%d", e.Detections),
			fmt.Sprintf("%d", e.Repairs),
			fmt.Sprintf("%d", e.Vetoed),
			fmt.Sprintf("%d", e.Condemned),
			e.Breaker, e.Outcome)
	}
	h := res.Health
	rep.AddNote("quarantined %d bytes (bar %d, crossed at epoch %d); %d corrupted chunks all detected, repaired, and demoted; %d promotions vetoed; breaker: %s (final %s); %d fault fires; results CRC %08x bit-identical to the fault-free run",
		h.Quarantined, res.QuarantineTarget, res.TargetEpoch,
		h.CorruptedChunks, h.PromotionsVetoed,
		transitionSummary(res.Transitions), res.FinalState,
		res.FaultEvents, res.ChaosCRC)
	return []*Report{rep}, nil
}
