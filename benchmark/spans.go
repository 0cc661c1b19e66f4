package main

import (
	"sort"
	"sync"
	"time"

	"atmem/internal/telemetry"
)

// Span is one timed interval: a call into a layer's public function,
// recorded by the benchmark around the call, or a span the runtime's own
// telemetry recorder emitted.
type Span struct {
	Name string
	// Start and End are host offsets from the tracer's origin.
	Start, End time.Duration
	// Parent indexes the enclosing span in the same tree; -1 for a root.
	Parent int
}

// Duration is the span's host length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so the untraced runs pay one pointer test per call site.
// Spans from concurrent goroutines are safe: parents are passed
// explicitly instead of being inferred from a per-thread stack.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// NewTracer starts an empty tracer whose clock origin is now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Begin opens a span under parent (-1 for a root) and returns its id.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children covers. Children may
// overlap each other (concurrent tenants); the union counts once.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered time.Duration
		var curLo, curHi time.Duration
		for k, iv := range ivs {
			switch {
			case k == 0:
				curLo, curHi = iv[0], iv[1]
			case iv[0] <= curHi:
				curHi = max(curHi, iv[1])
			default:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] = s.Duration() - covered
	}
	return self
}

// RecorderSpans rebuilds the runtime telemetry recorder's Begin/End
// pairs as spans named "<category>/<name>", nesting them per track in
// emission order. Unbalanced events (a span still open when the run
// ended) are dropped.
func RecorderSpans(events []telemetry.Event) []Span {
	evs := append([]telemetry.Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TID != evs[j].TID {
			return evs[i].TID < evs[j].TID
		}
		return evs[i].Seq < evs[j].Seq
	})
	var spans []Span
	var stack []int
	tid := -1
	for _, ev := range evs {
		if ev.TID != tid {
			tid, stack = ev.TID, stack[:0]
		}
		switch ev.Ph {
		case telemetry.PhaseBegin:
			parent := -1
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			spans = append(spans, Span{
				Name:   ev.Cat + "/" + ev.Name,
				Start:  time.Duration(ev.HostNS),
				End:    -1,
				Parent: parent,
			})
			stack = append(stack, len(spans)-1)
		case telemetry.PhaseEnd:
			if len(stack) == 0 {
				continue
			}
			spans[stack[len(stack)-1]].End = time.Duration(ev.HostNS)
			stack = stack[:len(stack)-1]
		}
	}
	closed := spans[:0]
	remap := make([]int, len(spans))
	for i, s := range spans {
		remap[i] = -1
		if s.End < 0 {
			continue
		}
		if s.Parent >= 0 {
			s.Parent = remap[s.Parent]
		}
		remap[i] = len(closed)
		closed = append(closed, s)
	}
	return closed
}

// spanTotals sums durations and self times per span name.
type spanTotals struct {
	total map[string]time.Duration
	self  map[string]time.Duration
	count map[string]int
}

func totalsOf(spans []Span) spanTotals {
	st := spanTotals{
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
		count: map[string]int{},
	}
	self := SelfTimes(spans)
	for i, s := range spans {
		st.total[s.Name] += s.Duration()
		st.self[s.Name] += self[i]
		st.count[s.Name]++
	}
	return st
}

// add folds another tree's totals in (one tree per runtime recorder).
func (st spanTotals) add(o spanTotals) {
	for k, v := range o.total {
		st.total[k] += v
	}
	for k, v := range o.self {
		st.self[k] += v
	}
	for k, v := range o.count {
		st.count[k] += v
	}
}

// ms returns d in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
