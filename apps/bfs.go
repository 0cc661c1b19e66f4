package apps

import (
	"fmt"
	"sort"
	"sync/atomic"

	"atmem"
	"atmem/graph"
)

// BFS is a level-synchronous top-down (push) breadth-first search, the
// frontier-based formulation SIMD graph frameworks use: each round, the
// vertices of the current frontier expand their out-edge segments and
// claim undiscovered neighbours with a compare-and-swap on the level
// array. Hub vertices enter the frontier early, so their edge segments
// take short demand-miss bursts every traversal — the skewed, sampling-
// visible access pattern ATMem's analyzer feeds on.
//
// Claims are atomic, so the computed levels are exact regardless of
// thread interleaving; the next frontier is sorted each round to keep
// processing order deterministic.
//
// One RunIteration is one complete traversal from the fixed root.
type BFS struct {
	// Root overrides the traversal source; 0 (the zero value) selects
	// the max-out-degree vertex, a well-connected hub.
	Root int

	g        *graph.Graph
	csr      csrData // out-edges
	lvl      *atmem.Array[int32]
	frontier *atmem.Array[uint32]
	next     *atmem.Array[uint32]
	root     int
}

// Name implements Kernel.
func (b *BFS) Name() string { return "bfs" }

// Setup implements Kernel.
func (b *BFS) Setup(rt *atmem.Runtime, dataset string) error {
	g, err := graph.Load(dataset)
	if err != nil {
		return err
	}
	b.g = g
	var err2 error
	if b.csr, err2 = registerCSR(rt, g, "bfs", false); err2 != nil {
		return err2
	}
	n := g.NumVertices()
	if b.lvl, err2 = atmem.NewArray[int32](rt, "bfs.level", n); err2 != nil {
		return err2
	}
	if b.frontier, err2 = atmem.NewArray[uint32](rt, "bfs.frontier", n); err2 != nil {
		return err2
	}
	if b.next, err2 = atmem.NewArray[uint32](rt, "bfs.next", n); err2 != nil {
		return err2
	}
	b.root = b.Root
	if b.root == 0 {
		b.root = g.MaxDegreeVertex()
	}
	return nil
}

// RunIteration implements Kernel.
func (b *BFS) RunIteration(rt *atmem.Runtime) IterationResult {
	var res IterationResult
	n := b.g.NumVertices()
	lvl := b.lvl.Raw()
	for i := range lvl {
		lvl[i] = -1
	}
	lvl[b.root] = 0
	cur := b.frontier.Raw()[:1]
	cur[0] = uint32(b.root)

	threads := rt.Threads()
	bufs := make([][]uint32, threads)
	for depth := int32(0); len(cur) > 0; depth++ {
		d := depth
		frontLen := len(cur)
		res.add(rt.RunPhase(fmt.Sprintf("bfs.round%d", d), func(c *atmem.Ctx) {
			lo, hi := c.Range(frontLen)
			buf := bufs[c.ID][:0]
			// Appends land in this thread's share of the next array.
			nextBase := c.ID * (n / threads)
			work := 0.0
			front := b.frontier.LoadSeq(c, lo, hi)
			for _, fv := range front {
				v := int(fv)
				elo, ehi := b.csr.neighborSpan(c, v)
				for _, dst := range b.csr.edges.LoadSeq(c, int(elo), int(ehi)) {
					work++
					b.lvl.SimLoad(c, int(dst))
					if atomic.LoadInt32(&lvl[dst]) != -1 {
						continue
					}
					if atomic.CompareAndSwapInt32(&lvl[dst], -1, d+1) {
						b.lvl.SimStore(c, int(dst))
						b.next.SimStore(c, min(nextBase+len(buf), n-1))
						buf = append(buf, dst)
					}
				}
			}
			bufs[c.ID] = buf
			c.Compute(work)
		}))
		merged := b.next.Raw()[:0]
		for _, buf := range bufs {
			merged = append(merged, buf...)
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		copy(b.frontier.Raw(), merged)
		cur = b.frontier.Raw()[:len(merged)]
	}
	return res
}

// Levels returns the computed level array (after RunIteration).
func (b *BFS) Levels() []int32 { return b.lvl.Raw() }

// Validate implements Kernel: the levels must match a serial reference
// BFS over the out-CSR.
func (b *BFS) Validate() error {
	want := referenceBFS(b.g, b.root)
	got := b.lvl.Raw()
	for v := range want {
		if want[v] != got[v] {
			return fmt.Errorf("bfs: level[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// referenceBFS is a plain serial BFS from root over g's out-edges.
func referenceBFS(g *graph.Graph, root int) []int32 {
	n := g.NumVertices()
	lvl := make([]int32, n)
	for i := range lvl {
		lvl[i] = -1
	}
	lvl[root] = 0
	frontier := []int{root}
	for depth := int32(0); len(frontier) > 0; depth++ {
		var next []int
		for _, v := range frontier {
			for _, dst := range g.Neighbors(v) {
				if lvl[dst] == -1 {
					lvl[dst] = depth + 1
					next = append(next, int(dst))
				}
			}
		}
		frontier = next
	}
	return lvl
}
