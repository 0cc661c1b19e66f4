package core

import (
	"fmt"
	"math"
	"sort"
)

// Range is one contiguous byte range selected for migration, produced by
// merging adjacent selected chunks. Density carries the mean priority of
// the range's chunks, used to order ranges under a capacity budget.
type Range struct {
	Base    uint64
	Size    uint64
	Density float64
}

// End returns the exclusive upper bound of the range.
func (r Range) End() uint64 { return r.Base + r.Size }

// ObjectPlan is the analyzer's decision for one data object.
type ObjectPlan struct {
	// Object is the planned data object.
	Object *DataObject
	// Local is the stage-1 hybrid local selection result.
	Local LocalSelection
	// TRThreshold is the globally adapted tree-ratio threshold
	// θ(TR_i)' of Eq. 5 applied to this object.
	TRThreshold float64
	// Estimated marks chunks promoted by the tree (estimated
	// selection, §4.3); disjoint from Local.Critical.
	Estimated []bool
	// Ranges is the final merged selection (sampled ∪ estimated),
	// ordered by address.
	Ranges []Range
	// SampledBytes and EstimatedBytes break the selection down by
	// origin.
	SampledBytes   uint64
	EstimatedBytes uint64
}

// SelectedBytes returns the total bytes this object contributes to the
// plan.
func (p *ObjectPlan) SelectedBytes() uint64 {
	return p.SampledBytes + p.EstimatedBytes
}

// Plan is the full placement decision across all registered objects.
type Plan struct {
	// Objects holds one entry per registered object, in address order.
	Objects []ObjectPlan
	// TotalBytes is the registered footprint.
	TotalBytes uint64
	// SelectedBytes is the footprint chosen for fast memory after
	// capacity clipping.
	SelectedBytes uint64
	// ClippedBytes is what the capacity budget forced the plan to drop.
	ClippedBytes uint64
	// Budget echoes the capacity budget applied (0 = unlimited).
	Budget uint64
	// MarginalDensity is the density of the hottest range the capacity
	// budget clipped — the per-byte value the plan would gain from one
	// more byte of fast memory. Zero when the budget was not binding.
	MarginalDensity float64
	// ColdestKeptDensity is the density of the coldest range the plan
	// kept — the per-byte cost of reclaiming fast memory from this
	// plan. Zero when nothing was selected.
	ColdestKeptDensity float64
}

// DataRatio returns SelectedBytes / TotalBytes — the quantity Figures 7–10
// of the paper report on their data-ratio axes.
func (p *Plan) DataRatio() float64 {
	if p.TotalBytes == 0 {
		return 0
	}
	return float64(p.SelectedBytes) / float64(p.TotalBytes)
}

// AllRanges returns every selected range across objects, address-ordered
// within each object.
func (p *Plan) AllRanges() []Range {
	var out []Range
	for i := range p.Objects {
		out = append(out, p.Objects[i].Ranges...)
	}
	return out
}

// StageObserver watches the analyzer walk its pipeline. StageBegin and
// StageEnd bracket each named stage — "rank" (local selection plus the
// global density rescue), "threshold" (Eq. 4–5 adapted thresholds),
// "promote" (tree building and top-down promotion), and "clip" (range
// merging and capacity clipping). StageEnd carries a small summary of
// what the stage decided. Calls arrive on the Analyze goroutine; a nil
// observer disables observation.
type StageObserver interface {
	StageBegin(stage string)
	StageEnd(stage string, summary map[string]any)
}

// Analyze runs the full two-stage analyzer (§4.2–§4.3) over the registry:
// local selection per object, global weight ranking, per-object adapted
// tree-ratio thresholds, top-down promotion, range merging, and capacity
// clipping against budgetBytes of fast memory (0 = unlimited).
//
// period is the sampling period the profiler used, needed to scale sample
// counts back to priority units.
func Analyze(r *Registry, period uint64, budgetBytes uint64) (*Plan, error) {
	return AnalyzeObserved(r, period, budgetBytes, nil)
}

// AnalyzeObserved is Analyze with a StageObserver reporting each pipeline
// stage (obs may be nil, making it exactly Analyze).
func AnalyzeObserved(r *Registry, period uint64, budgetBytes uint64, obs StageObserver) (*Plan, error) {
	if period == 0 {
		return nil, fmt.Errorf("core: Analyze with zero sampling period")
	}
	cfg := r.cfg
	objs := r.Objects()
	plan := &Plan{
		Objects: make([]ObjectPlan, len(objs)),
		Budget:  budgetBytes,
	}

	// Stage 1: hybrid local selection (Eq. 1–3).
	if obs != nil {
		obs.StageBegin("rank")
	}
	for i, o := range objs {
		plan.Objects[i] = ObjectPlan{
			Object: o,
			Local:  SelectLocal(o, period, cfg),
		}
		plan.TotalBytes += o.Size
	}

	// Global density rescue: the local stage ranks chunks only against
	// their own object, so a chunk below its object's knee can still be
	// far hotter per byte than the system average — and a uniform
	// object (no internal structure at all) is decided here as a whole
	// unit, §9's coarse-grained equivalence for regular access. Any
	// chunk whose priority exceeds UniformHotFactor times the weighted
	// cross-object density joins the sampled selection.
	var totalMass float64
	for i := range plan.Objects {
		op := &plan.Objects[i]
		totalMass += op.Local.MeanPR * float64(op.Object.Size)
	}
	// ε is the paper's data-ratio knob (§7.2 sweeps it to trade fast-
	// memory footprint against speed). Promotion thresholds scale with
	// it directly via Eq. 5; the global rescue threshold scales with
	// (ε·M)² so the default ε = 1/M leaves it untouched, ε → 0 pulls
	// every sampled chunk in (data ratio → 1), and ε → 1 leaves only
	// the local knee selection.
	epsScale := cfg.EffectiveEpsilon() * float64(cfg.M)
	for i := range plan.Objects {
		op := &plan.Objects[i]
		// Leave-one-out reference density: an object is compared to
		// the rest of the footprint, so a dominant hot object cannot
		// raise its own bar.
		restBytes := float64(plan.TotalBytes - op.Object.Size)
		var rescue float64
		if restBytes > 0 {
			reference := (totalMass - op.Local.MeanPR*float64(op.Object.Size)) / restBytes
			rescue = cfg.UniformHotFactor * reference * epsScale * epsScale
			if rescue == 0 && op.Local.MeanPR > 0 && op.Local.NumCritical == 0 {
				// The rest of the footprint was never sampled, so the
				// reference density is exactly zero — and the local stage
				// found no internal structure to select either (a Uniform
				// object). Any sampled chunk is infinitely hotter than the
				// idle reference. This shape is common under per-epoch
				// profiling (an epoch samples only what it touched);
				// without this floor a uniformly-hot object next to idle
				// ones would select nothing. Objects with a local knee
				// selection keep it unchanged: the rescue never widens a
				// skewed selection against a zero reference.
				rescue = math.SmallestNonzeroFloat64
			}
		} else if op.Local.MeanPR > 0 {
			// A sole object competes with nothing: any sampled chunk
			// qualifies (the capacity budget still bounds the plan).
			rescue = math.SmallestNonzeroFloat64
		}
		if rescue <= 0 {
			continue
		}
		var prSum float64
		for j := range op.Local.Critical {
			if !op.Local.Critical[j] && op.Local.PR[j] >= rescue {
				op.Local.Critical[j] = true
				op.Local.NumCritical++
			}
			if op.Local.Critical[j] {
				prSum += op.Local.PR[j]
			}
		}
		if op.Local.NumCritical > 0 {
			op.Local.Weight = prSum / float64(op.Local.NumCritical)
		}
	}
	if obs != nil {
		sampled := 0
		for i := range plan.Objects {
			sampled += plan.Objects[i].Local.NumCritical
		}
		obs.StageEnd("rank", map[string]any{
			"objects":        len(plan.Objects),
			"sampled_chunks": sampled,
		})
	}

	// Stage 2: global relative ranking of object weights (Eq. 4) and
	// per-object adapted tree-ratio thresholds (Eq. 5). Thresholds
	// depend only on the weight space, not on promotions, so the two
	// halves of the stage run as separate passes.
	if obs != nil {
		obs.StageBegin("threshold")
	}
	minW, maxW, anyW := weightSpace(plan.Objects)
	eps := cfg.EffectiveEpsilon()
	for i := range plan.Objects {
		op := &plan.Objects[i]
		op.TRThreshold = AdaptTRThreshold(op.Local.Weight, minW, maxW, anyW,
			cfg.BaseTRThreshold, eps)
	}
	if obs != nil {
		obs.StageEnd("threshold", map[string]any{
			"min_weight": minW,
			"max_weight": maxW,
			"epsilon":    eps,
		})
		obs.StageBegin("promote")
	}
	promoted := 0
	for i := range plan.Objects {
		op := &plan.Objects[i]
		tree := BuildTree(op.Local.Critical, cfg.M)
		op.Estimated = tree.Promote(op.TRThreshold, op.Local.Critical)
		for _, est := range op.Estimated {
			if est {
				promoted++
			}
		}
	}
	if obs != nil {
		obs.StageEnd("promote", map[string]any{
			"estimated_chunks": promoted,
			"tree_arity":       cfg.M,
		})
		obs.StageBegin("clip")
	}

	// Merge selections into ranges and clip to the capacity budget.
	buildRanges(plan)
	clipToBudget(plan, budgetBytes)
	for i := range plan.Objects {
		op := &plan.Objects[i]
		for _, rg := range op.Ranges {
			plan.SelectedBytes += rg.Size
			if plan.ColdestKeptDensity == 0 || rg.Density < plan.ColdestKeptDensity {
				plan.ColdestKeptDensity = rg.Density
			}
		}
	}
	if obs != nil {
		obs.StageEnd("clip", map[string]any{
			"selected_bytes": plan.SelectedBytes,
			"clipped_bytes":  plan.ClippedBytes,
			"budget_bytes":   plan.Budget,
		})
	}
	return plan, nil
}

// weightSpace computes the min/max weight over objects that selected at
// least one chunk (objects with empty selections carry no information and
// are excluded, as their trees cannot promote anything anyway).
func weightSpace(objs []ObjectPlan) (minW, maxW float64, any bool) {
	for i := range objs {
		if objs[i].Local.NumCritical == 0 {
			continue
		}
		w := objs[i].Local.Weight
		if !any || w < minW {
			minW = w
		}
		if !any || w > maxW {
			maxW = w
		}
		any = true
	}
	return minW, maxW, any
}

// AdaptTRThreshold implements Eq. 5:
//
//	θ(TR_i)' = ε + θ(TR) · (maxW − W(DO_i)) / ‖minW − maxW‖
//
// A heavier object (few chunks with very high priority) gets a threshold
// closer to ε, promoting more aggressively; the lightest object gets
// ε + θ(TR). When the weight space is empty or degenerate (a single
// object, or all weights equal) every object is at the maximum weight and
// receives ε.
func AdaptTRThreshold(w, minW, maxW float64, space bool, base, eps float64) float64 {
	if !space || maxW == minW {
		return clamp01(eps)
	}
	th := eps + base*(maxW-w)/(maxW-minW)
	return clamp01(th)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// buildRanges merges each object's selected chunks (sampled ∪ estimated)
// into maximal contiguous byte ranges and fills the per-origin byte
// counters.
func buildRanges(plan *Plan) {
	for i := range plan.Objects {
		op := &plan.Objects[i]
		o := op.Object
		var ranges []Range
		j := 0
		for j < o.NumChunks {
			if !op.Local.Critical[j] && !op.Estimated[j] {
				j++
				continue
			}
			start := j
			var prSum float64
			for j < o.NumChunks && (op.Local.Critical[j] || op.Estimated[j]) {
				if op.Local.Critical[j] {
					op.SampledBytes += o.ChunkBytes(j)
				} else {
					op.EstimatedBytes += o.ChunkBytes(j)
				}
				prSum += op.Local.PR[j]
				j++
			}
			lo, _ := o.ChunkRange(start)
			_, hi := o.ChunkRange(j - 1)
			ranges = append(ranges, Range{
				Base:    lo,
				Size:    hi - lo,
				Density: prSum / float64(j-start),
			})
		}
		op.Ranges = ranges
	}
}

// clipToBudget drops the least-dense selected chunks until the plan fits
// in budgetBytes. Clipping operates at range granularity from the sparse
// end: whole ranges are dropped lowest-density-first, and the last range
// kept may be truncated at a chunk boundary (densest chunks within a
// range cannot be distinguished post-merge, so truncation trims the tail).
func clipToBudget(plan *Plan, budget uint64) {
	if budget == 0 {
		return
	}
	var total uint64
	type rref struct {
		obj, idx int
	}
	var refs []rref
	for i := range plan.Objects {
		for k := range plan.Objects[i].Ranges {
			refs = append(refs, rref{i, k})
			total += plan.Objects[i].Ranges[k].Size
		}
	}
	if total <= budget {
		return
	}
	sort.SliceStable(refs, func(a, b int) bool {
		ra := plan.Objects[refs[a].obj].Ranges[refs[a].idx]
		rb := plan.Objects[refs[b].obj].Ranges[refs[b].idx]
		return ra.Density < rb.Density
	})
	drop := total - budget
	dropped := make(map[rref]uint64, len(refs))
	for _, ref := range refs {
		if drop == 0 {
			break
		}
		rg := &plan.Objects[ref.obj].Ranges[ref.idx]
		cs := plan.Objects[ref.obj].Object.ChunkSize
		cut := RoundUpU64(drop, cs)
		if cut >= rg.Size {
			dropped[ref] = rg.Size
			drop -= min(drop, rg.Size)
		} else {
			dropped[ref] = cut
			drop = 0
		}
		// refs iterate in ascending density, so the last range clipped
		// from is the hottest denied one.
		plan.MarginalDensity = rg.Density
	}
	for i := range plan.Objects {
		op := &plan.Objects[i]
		kept := op.Ranges[:0]
		for k := range op.Ranges {
			cut, ok := dropped[rref{i, k}]
			rg := op.Ranges[k]
			if !ok {
				kept = append(kept, rg)
				continue
			}
			if cut >= rg.Size {
				plan.ClippedBytes += rg.Size
				continue
			}
			rg.Size -= cut
			plan.ClippedBytes += cut
			kept = append(kept, rg)
		}
		op.Ranges = kept
	}
	// Recompute the per-origin counters against the clipped ranges.
	for i := range plan.Objects {
		recountOrigins(&plan.Objects[i])
	}
}

func recountOrigins(op *ObjectPlan) {
	op.SampledBytes = 0
	op.EstimatedBytes = 0
	o := op.Object
	for _, rg := range op.Ranges {
		firstChunk := int((rg.Base - o.Base) / o.ChunkSize)
		lastChunk := int((rg.End() - o.Base - 1) / o.ChunkSize)
		for j := firstChunk; j <= lastChunk; j++ {
			lo, hi := o.ChunkRange(j)
			if lo < rg.Base {
				lo = rg.Base
			}
			if hi > rg.End() {
				hi = rg.End()
			}
			if hi <= lo {
				continue
			}
			if op.Local.Critical[j] {
				op.SampledBytes += hi - lo
			} else {
				op.EstimatedBytes += hi - lo
			}
		}
	}
}

// RoundUpU64 rounds n up to a multiple of align (align > 0).
func RoundUpU64(n, align uint64) uint64 {
	return (n + align - 1) / align * align
}
