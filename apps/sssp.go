package apps

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"unsafe"

	"atmem"
	"atmem/graph"
)

// SSSP is a frontier-based Bellman-Ford single-source shortest-path
// solver in the push formulation SIMD graph frameworks use: each round,
// the vertices whose distance improved relax their out-edges with an
// atomic floating-point minimum on the distance array, and every
// destination that improved joins the next frontier exactly once
// (claimed through a round-stamp array). Atomic minima never lose
// updates, so the final distances are the exact shortest-path fixed
// point regardless of thread interleaving.
//
// One RunIteration runs rounds until the frontier empties (bounded by
// MaxRounds as a safety net).
type SSSP struct {
	// Source overrides the source vertex; 0 selects the
	// max-out-degree hub.
	Source int
	// MaxRounds bounds the relaxation rounds; 0 means 1024.
	MaxRounds int

	g        *graph.Graph
	csr      csrData // out-edges with weights
	dist     *atmem.Array[float32]
	stamp    *atmem.Array[int32]
	frontier *atmem.Array[uint32]
	next     *atmem.Array[uint32]
	source   int
}

// Name implements Kernel.
func (s *SSSP) Name() string { return "sssp" }

// Setup implements Kernel.
func (s *SSSP) Setup(rt *atmem.Runtime, dataset string) error {
	g, err := graph.Load(dataset)
	if err != nil {
		return err
	}
	s.g = g
	if s.csr, err = registerCSR(rt, g, "sssp", true); err != nil {
		return err
	}
	n := g.NumVertices()
	if s.dist, err = atmem.NewArray[float32](rt, "sssp.dist", n); err != nil {
		return err
	}
	if s.stamp, err = atmem.NewArray[int32](rt, "sssp.stamp", n); err != nil {
		return err
	}
	if s.frontier, err = atmem.NewArray[uint32](rt, "sssp.frontier", n); err != nil {
		return err
	}
	if s.next, err = atmem.NewArray[uint32](rt, "sssp.next", n); err != nil {
		return err
	}
	s.source = s.Source
	if s.source == 0 {
		s.source = g.MaxDegreeVertex()
	}
	if s.MaxRounds == 0 {
		s.MaxRounds = 1024
	}
	return nil
}

const infDist = float32(math.MaxFloat32)

// float32Bits aliases a float32 slice as uint32 bit patterns for atomic
// access. Valid because float32 and uint32 share size and alignment, and
// the comparison order of non-negative floats matches their bit order.
func float32Bits(xs []float32) []uint32 {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&xs[0])), len(xs))
}

// atomicMinFloat32 lowers the float stored in *bits to v if v is smaller,
// returning whether it changed the value.
func atomicMinFloat32(bits *uint32, v float32) bool {
	nv := math.Float32bits(v)
	for {
		cur := atomic.LoadUint32(bits)
		if math.Float32frombits(cur) <= v {
			return false
		}
		if atomic.CompareAndSwapUint32(bits, cur, nv) {
			return true
		}
	}
}

// RunIteration implements Kernel.
func (s *SSSP) RunIteration(rt *atmem.Runtime) IterationResult {
	var res IterationResult
	n := s.g.NumVertices()
	dist := s.dist.Raw()
	for i := range dist {
		dist[i] = infDist
	}
	dist[s.source] = 0
	distBits := float32Bits(dist)
	stamp := s.stamp.Raw()
	for i := range stamp {
		stamp[i] = -1
	}

	cur := s.frontier.Raw()[:1]
	cur[0] = uint32(s.source)
	threads := rt.Threads()
	bufs := make([][]uint32, threads)
	for round := int32(0); len(cur) > 0 && int(round) < s.MaxRounds; round++ {
		r := round
		frontLen := len(cur)
		res.add(rt.RunPhase(fmt.Sprintf("sssp.round%d", r), func(c *atmem.Ctx) {
			lo, hi := c.Range(frontLen)
			buf := bufs[c.ID][:0]
			nextBase := c.ID * (n / threads)
			work := 0.0
			front := s.frontier.LoadSeq(c, lo, hi)
			for _, fv := range front {
				v := int(fv)
				// dist[v] may be lowered concurrently by another thread's
				// relaxation; the atomic read keeps the race detector
				// clean and any value read still converges to the same
				// fixed point.
				s.dist.SimLoad(c, v)
				dv := math.Float32frombits(atomic.LoadUint32(&distBits[v]))
				elo, ehi := s.csr.neighborSpan(c, v)
				dsts := s.csr.edges.LoadSeq(c, int(elo), int(ehi))
				ws := s.csr.weights.LoadSeq(c, int(elo), int(ehi))
				for ei, dst := range dsts {
					w := ws[ei]
					work += 2
					nd := dv + w
					s.dist.SimLoad(c, int(dst))
					if !atomicMinFloat32(&distBits[dst], nd) {
						continue
					}
					s.dist.SimStore(c, int(dst))
					s.stamp.SimLoad(c, int(dst))
					old := atomic.LoadInt32(&stamp[dst])
					if old != r && atomic.CompareAndSwapInt32(&stamp[dst], old, r) {
						s.stamp.SimStore(c, int(dst))
						s.next.SimStore(c, min(nextBase+len(buf), n-1))
						buf = append(buf, dst)
					}
				}
			}
			bufs[c.ID] = buf
			c.Compute(work)
		}))
		merged := s.next.Raw()[:0]
		for _, buf := range bufs {
			merged = append(merged, buf...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		merged = dedupSorted(merged)
		copy(s.frontier.Raw(), merged)
		cur = s.frontier.Raw()[:len(merged)]
	}
	return res
}

// dedupSorted removes adjacent duplicates in place.
func dedupSorted(xs []uint32) []uint32 {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Distances returns the computed distances (after RunIteration).
func (s *SSSP) Distances() []float32 { return s.dist.Raw() }

// Validate implements Kernel against a serial Bellman-Ford reference.
func (s *SSSP) Validate() error {
	want := referenceSSSP(s.g, s.source)
	got := s.dist.Raw()
	for v := range want {
		if want[v] != got[v] {
			return fmt.Errorf("sssp: dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	return nil
}

// referenceSSSP is a serial Bellman-Ford over out-edges.
func referenceSSSP(g *graph.Graph, source int) []float32 {
	n := g.NumVertices()
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = infDist
	}
	dist[source] = 0
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if dist[v] == infDist {
				continue
			}
			for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
				d := g.Edges[i]
				if nd := dist[v] + g.Weights[i]; nd < dist[d] {
					dist[d] = nd
					changed = true
				}
			}
		}
	}
	return dist
}
