package apps

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"atmem"
	"atmem/graph"
)

// BC computes single-source betweenness centrality with Brandes'
// algorithm in frontier form: a push BFS collects one sorted vertex list
// per level, a forward sweep per level gathers shortest-path counts sigma
// from in-neighbours one level up, and a backward sweep per level gathers
// dependencies delta from out-neighbours one level down. Every phase
// iterates only the level's frontier list, so each edge is traversed a
// constant number of times per pass and the hub levels dominate the
// access stream — the skew ATMem exploits.
//
// Sigma/delta gathers write each vertex from exactly one thread, so the
// computation is deterministic.
//
// One RunIteration is one complete single-source pass from the fixed
// root (the paper's BC benchmark measures per-traversal time).
type BC struct {
	// Root overrides the source; 0 selects the max-out-degree hub.
	Root int

	g     *graph.Graph
	in    csrData // transpose: gather sigma from predecessors
	out   csrData // original: expand BFS, gather delta from successors
	lvl   *atmem.Array[int32]
	sigma *atmem.Array[float64]
	delta *atmem.Array[float64]
	bc    *atmem.Array[float64]
	front *atmem.Array[uint32]
	root  int
}

// Name implements Kernel.
func (b *BC) Name() string { return "bc" }

// Setup implements Kernel.
func (b *BC) Setup(rt *atmem.Runtime, dataset string) error {
	g, err := graph.Load(dataset)
	if err != nil {
		return err
	}
	in, err := graph.LoadReverse(dataset)
	if err != nil {
		return err
	}
	b.g = g
	if b.in, err = registerCSR(rt, in, "bc.in", false); err != nil {
		return err
	}
	if b.out, err = registerCSR(rt, g, "bc.out", false); err != nil {
		return err
	}
	n := g.NumVertices()
	if b.lvl, err = atmem.NewArray[int32](rt, "bc.level", n); err != nil {
		return err
	}
	if b.sigma, err = atmem.NewArray[float64](rt, "bc.sigma", n); err != nil {
		return err
	}
	if b.delta, err = atmem.NewArray[float64](rt, "bc.delta", n); err != nil {
		return err
	}
	if b.bc, err = atmem.NewArray[float64](rt, "bc.score", n); err != nil {
		return err
	}
	if b.front, err = atmem.NewArray[uint32](rt, "bc.frontier", n); err != nil {
		return err
	}
	b.root = b.Root
	if b.root == 0 {
		b.root = g.MaxDegreeVertex()
	}
	return nil
}

// RunIteration implements Kernel.
func (b *BC) RunIteration(rt *atmem.Runtime) IterationResult {
	var res IterationResult
	n := b.g.NumVertices()
	lvl := b.lvl.Raw()
	for i := range lvl {
		lvl[i] = -1
	}
	lvl[b.root] = 0
	b.sigma.Fill(0)
	b.sigma.Raw()[b.root] = 1
	b.delta.Fill(0)

	threads := rt.Threads()
	bufs := make([][]uint32, threads)

	// Phase 1: push BFS, keeping the sorted frontier of every level.
	levels := [][]uint32{{uint32(b.root)}}
	cur := []uint32{uint32(b.root)}
	for depth := int32(0); len(cur) > 0; depth++ {
		d := depth
		frontier := cur
		copy(b.front.Raw(), frontier)
		frontLen := len(frontier)
		res.add(rt.RunPhase(fmt.Sprintf("bc.bfs%d", d), func(c *atmem.Ctx) {
			lo, hi := c.Range(frontLen)
			buf := bufs[c.ID][:0]
			nextBase := c.ID * (n / threads)
			work := 0.0
			for _, fv := range b.front.LoadSeq(c, lo, hi) {
				v := int(fv)
				elo, ehi := b.out.neighborSpan(c, v)
				for _, dst := range b.out.edges.LoadSeq(c, int(elo), int(ehi)) {
					work++
					b.lvl.SimLoad(c, int(dst))
					if atomic.LoadInt32(&lvl[dst]) != -1 {
						continue
					}
					if atomic.CompareAndSwapInt32(&lvl[dst], -1, d+1) {
						b.lvl.SimStore(c, int(dst))
						b.front.SimStore(c, min(nextBase+len(buf), n-1))
						buf = append(buf, dst)
					}
				}
			}
			bufs[c.ID] = buf
			c.Compute(work)
		}))
		var next []uint32
		for _, buf := range bufs {
			next = append(next, buf...)
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		if len(next) > 0 {
			levels = append(levels, next)
		}
		cur = next
	}

	// Phase 2: forward sigma accumulation, one sweep per level, each
	// vertex gathering from in-neighbours one level up (deterministic:
	// single writer per vertex, fixed gather order).
	for d := 1; d < len(levels); d++ {
		depth := int32(d)
		frontier := levels[d]
		copy(b.front.Raw(), frontier)
		frontLen := len(frontier)
		res.add(rt.RunPhase(fmt.Sprintf("bc.sigma%d", d), func(c *atmem.Ctx) {
			lo, hi := c.Range(frontLen)
			work := 0.0
			for _, fv := range b.front.LoadSeq(c, lo, hi) {
				v := int(fv)
				elo, ehi := b.in.neighborSpan(c, v)
				sum := 0.0
				for _, u := range b.in.edges.LoadSeq(c, int(elo), int(ehi)) {
					work += 2
					if b.lvl.Load(c, int(u)) == depth-1 {
						sum += b.sigma.Load(c, int(u))
					}
				}
				b.sigma.Store(c, v, sum)
			}
			c.Compute(work)
		}))
	}

	// Phase 3: backward dependency accumulation, deepest level first.
	for d := len(levels) - 2; d >= 0; d-- {
		depth := int32(d)
		frontier := levels[d]
		copy(b.front.Raw(), frontier)
		frontLen := len(frontier)
		res.add(rt.RunPhase(fmt.Sprintf("bc.delta%d", d), func(c *atmem.Ctx) {
			lo, hi := c.Range(frontLen)
			work := 0.0
			for _, fv := range b.front.LoadSeq(c, lo, hi) {
				v := int(fv)
				sv := b.sigma.Load(c, v)
				if sv == 0 {
					continue
				}
				elo, ehi := b.out.neighborSpan(c, v)
				sum := 0.0
				for _, w := range b.out.edges.LoadSeq(c, int(elo), int(ehi)) {
					work += 2
					if b.lvl.Load(c, int(w)) == depth+1 {
						sw := b.sigma.Load(c, int(w))
						if sw > 0 {
							sum += sv / sw * (1 + b.delta.Load(c, int(w)))
						}
					}
				}
				b.delta.Store(c, v, sum)
				if v != b.root {
					b.bc.Store(c, v, b.bc.Load(c, v)+sum)
				}
			}
			c.Compute(work)
		}))
	}
	return res
}

// Scores returns the accumulated centrality scores.
func (b *BC) Scores() []float64 { return b.bc.Raw() }

// Validate implements Kernel: sigma and delta must match a serial Brandes
// pass.
func (b *BC) Validate() error {
	wantSigma, wantDelta := referenceBrandes(b.g, b.root)
	gotS := b.sigma.Raw()
	gotD := b.delta.Raw()
	for v := range wantSigma {
		if math.Abs(wantSigma[v]-gotS[v]) > 1e-9*(1+math.Abs(wantSigma[v])) {
			return fmt.Errorf("bc: sigma[%d] = %g, want %g", v, gotS[v], wantSigma[v])
		}
		if math.Abs(wantDelta[v]-gotD[v]) > 1e-9*(1+math.Abs(wantDelta[v])) {
			return fmt.Errorf("bc: delta[%d] = %g, want %g", v, gotD[v], wantDelta[v])
		}
	}
	return nil
}

// referenceBrandes is a serial single-source Brandes pass over out-edges.
func referenceBrandes(g *graph.Graph, root int) (sigma, delta []float64) {
	n := g.NumVertices()
	lvl := referenceBFS(g, root)
	sigma = make([]float64, n)
	delta = make([]float64, n)
	sigma[root] = 1
	maxLevel := int32(0)
	for _, l := range lvl {
		if l > maxLevel {
			maxLevel = l
		}
	}
	// Forward: accumulate sigma level by level over out-edges.
	for d := int32(0); d < maxLevel; d++ {
		for v := 0; v < n; v++ {
			if lvl[v] != d || sigma[v] == 0 {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if lvl[w] == d+1 {
					sigma[w] += sigma[v]
				}
			}
		}
	}
	// Backward: dependencies, deepest first.
	for d := maxLevel - 1; d >= 0; d-- {
		for v := 0; v < n; v++ {
			if lvl[v] != d || sigma[v] == 0 {
				continue
			}
			sum := 0.0
			for _, w := range g.Neighbors(v) {
				if lvl[w] == d+1 && sigma[w] > 0 {
					sum += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			delta[v] = sum
		}
	}
	return sigma, delta
}
