package apps

import (
	"fmt"
	"sort"
	"sync/atomic"

	"atmem"
	"atmem/graph"
)

// CC computes connected components with frontier-based min-label
// propagation over the symmetrized graph: active vertices push their
// label to their neighbours with an atomic minimum; a neighbour whose
// label improves joins the next frontier. Atomic minima never lose
// updates, so the labels converge to the exact minimum vertex id of each
// component regardless of thread interleaving.
//
// One RunIteration runs the propagation to its fixed point (bounded by
// MaxRounds as a safety net).
type CC struct {
	// MaxRounds bounds propagation; 0 means 1024.
	MaxRounds int

	g        *graph.Graph // original, for validation
	sym      csrData      // symmetrized CSR
	symG     *graph.Graph
	label    *atmem.Array[uint32]
	stamp    *atmem.Array[int32]
	frontier *atmem.Array[uint32]
	next     *atmem.Array[uint32]
}

// Name implements Kernel.
func (k *CC) Name() string { return "cc" }

// Setup implements Kernel.
func (k *CC) Setup(rt *atmem.Runtime, dataset string) error {
	g, err := graph.Load(dataset)
	if err != nil {
		return err
	}
	sym, err := graph.LoadSymmetric(dataset)
	if err != nil {
		return err
	}
	k.g = g
	k.symG = sym
	if k.sym, err = registerCSR(rt, sym, "cc", false); err != nil {
		return err
	}
	n := g.NumVertices()
	if k.label, err = atmem.NewArray[uint32](rt, "cc.label", n); err != nil {
		return err
	}
	if k.stamp, err = atmem.NewArray[int32](rt, "cc.stamp", n); err != nil {
		return err
	}
	if k.frontier, err = atmem.NewArray[uint32](rt, "cc.frontier", n); err != nil {
		return err
	}
	if k.next, err = atmem.NewArray[uint32](rt, "cc.next", n); err != nil {
		return err
	}
	if k.MaxRounds == 0 {
		k.MaxRounds = 1024
	}
	return nil
}

// atomicMinUint32 lowers *p to v if v is smaller, returning whether it
// changed the value.
func atomicMinUint32(p *uint32, v uint32) bool {
	for {
		cur := atomic.LoadUint32(p)
		if cur <= v {
			return false
		}
		if atomic.CompareAndSwapUint32(p, cur, v) {
			return true
		}
	}
}

// RunIteration implements Kernel.
func (k *CC) RunIteration(rt *atmem.Runtime) IterationResult {
	var res IterationResult
	n := k.symG.NumVertices()
	labels := k.label.Raw()
	for v := range labels {
		labels[v] = uint32(v)
	}
	stamp := k.stamp.Raw()
	for i := range stamp {
		stamp[i] = -1
	}
	// Round 0: every vertex is active.
	cur := k.frontier.Raw()
	for v := range cur {
		cur[v] = uint32(v)
	}

	threads := rt.Threads()
	bufs := make([][]uint32, threads)
	for round := int32(0); len(cur) > 0 && int(round) < k.MaxRounds; round++ {
		r := round
		frontLen := len(cur)
		res.add(rt.RunPhase(fmt.Sprintf("cc.round%d", r), func(c *atmem.Ctx) {
			lo, hi := c.Range(frontLen)
			buf := bufs[c.ID][:0]
			nextBase := c.ID * (n / threads)
			work := 0.0
			front := k.frontier.LoadSeq(c, lo, hi)
			for _, fv := range front {
				v := int(fv)
				k.label.SimLoad(c, v)
				lv := atomic.LoadUint32(&labels[v])
				elo, ehi := k.sym.neighborSpan(c, v)
				for _, dst := range k.sym.edges.LoadSeq(c, int(elo), int(ehi)) {
					work++
					k.label.SimLoad(c, int(dst))
					if !atomicMinUint32(&labels[dst], lv) {
						continue
					}
					k.label.SimStore(c, int(dst))
					k.stamp.SimLoad(c, int(dst))
					old := atomic.LoadInt32(&stamp[dst])
					if old != r && atomic.CompareAndSwapInt32(&stamp[dst], old, r) {
						k.stamp.SimStore(c, int(dst))
						k.next.SimStore(c, min(nextBase+len(buf), n-1))
						buf = append(buf, dst)
					}
				}
			}
			bufs[c.ID] = buf
			c.Compute(work)
		}))
		merged := k.next.Raw()[:0]
		for _, buf := range bufs {
			merged = append(merged, buf...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		merged = dedupSorted(merged)
		copy(k.frontier.Raw(), merged)
		cur = k.frontier.Raw()[:len(merged)]
	}
	return res
}

// Labels returns the component labels (after RunIteration).
func (k *CC) Labels() []uint32 { return k.label.Raw() }

// Validate implements Kernel: every vertex must carry the minimum id of
// its undirected component.
func (k *CC) Validate() error {
	want := referenceCC(k.symG)
	got := k.label.Raw()
	for v := range want {
		if want[v] != got[v] {
			return fmt.Errorf("cc: label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// referenceCC computes min-id component labels with a serial union-find.
func referenceCC(sym *graph.Graph) []uint32 {
	n := sym.NumVertices()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Union toward the smaller id so roots are component minima.
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	for v := 0; v < n; v++ {
		for _, d := range sym.Neighbors(v) {
			union(v, int(d))
		}
	}
	out := make([]uint32, n)
	for v := range out {
		out[v] = uint32(find(v))
	}
	return out
}
