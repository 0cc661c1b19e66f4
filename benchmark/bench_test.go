package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"atmem/internal/telemetry"
)

func TestPercentileRuleAndCounts(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: Summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		p50, p90 float64
		beyond   int
	}{
		{n: 1, p50: 1, p90: 1, beyond: 0},
		{n: 5, p50: 3, p90: 5, beyond: 0},
		{n: 10, p50: 5, p90: 9, beyond: 1},
		{n: 99, p50: 50, p90: 90, beyond: 9},
		{n: 100, p50: 50, p90: 90, beyond: 10},
		{n: 250, p50: 125, p90: 225, beyond: 25},
	} {
		d := Summarize(seq(tc.n))
		if d.N != tc.n || d.P50 != tc.p50 || d.P90 != tc.p90 || d.BeyondP90 != tc.beyond {
			t.Errorf("n=%d: got %+v, want p50 %v p90 %v beyond %d", tc.n, d, tc.p50, tc.p90, tc.beyond)
		}
	}
	if d := Summarize(nil); d != (Dist{}) {
		t.Errorf("no samples: got %+v, want zero", d)
	}
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile reordered its input: %v", xs)
	}
	if g := GeoMean([]float64{2, 8}); g != 4 {
		t.Errorf("GeoMean(2, 8) = %v, want 4", g)
	}
}

func TestSelfTimesFromNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "b", Start: 30 * ms, End: 60 * ms, Parent: 0}, // overlaps a
		{Name: "a.1", Start: 15 * ms, End: 20 * ms, Parent: 1},
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0}, // runs past its parent
	}
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 5 * ms, 30 * ms}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	st := totalsOf(spans)
	if st.total["root"] != 100*ms || st.self["root"] != 40*ms || st.count["a"] != 1 {
		t.Errorf("totals: %+v", st)
	}
}

func TestTracerNilAndConcurrent(t *testing.T) {
	var off *Tracer
	if id := off.Begin("x", -1); id != -1 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	off.End(-1)
	if off.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}

	tr := NewTracer()
	root := tr.Begin("round", -1)
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			timed(tr, "RunEpoch", root, func(id int) { timed(tr, "body", id, func(int) {}) })
		}()
	}
	<-done
	<-done
	tr.End(root)
	st := totalsOf(tr.Spans())
	if st.count["RunEpoch"] != 2 || st.count["body"] != 2 || st.count["round"] != 1 {
		t.Fatalf("counts: %v", st.count)
	}
}

func TestRecorderSpansRebuildNesting(t *testing.T) {
	var now int64
	rec := telemetry.NewRecorder(telemetry.WithHostClock(func() int64 { return now }))
	at := func(ns int64, f func()) { now = ns; f() }
	at(0, func() { rec.Begin(0, "epoch", "hot-1", nil) })
	at(10, func() { rec.Begin(0, "phase", "window", nil) })
	at(30, func() { rec.End(0, "phase", "window", nil) })
	at(40, func() { rec.Begin(0, "optimize", "optimize", nil) })
	at(45, func() { rec.Begin(0, "analyze", "rank", nil) })
	at(55, func() { rec.End(0, "analyze", "rank", nil) })
	at(80, func() { rec.End(0, "optimize", "optimize", nil) })
	at(90, func() { rec.Instant(0, "fault", "x", nil) })
	at(100, func() { rec.End(0, "epoch", "hot-1", nil) })
	at(110, func() { rec.Begin(0, "phase", "unclosed", nil) })

	spans := RecorderSpans(rec.Events())
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4 (the unclosed one dropped): %+v", len(spans), spans)
	}
	st := totalsOf(spans)
	for name, want := range map[string]time.Duration{
		"epoch/hot-1":       40, // 100 minus the phase (20) and optimize (40)
		"phase/window":      20,
		"optimize/optimize": 30, // migrate.host_ms: optimize minus analyze
		"analyze/rank":      10,
	} {
		if st.self[name] != want {
			t.Errorf("self(%s) = %v, want %v", name, st.self[name], want)
		}
	}
	if a, e := sumPrefix(st.total, "analyze/"), sumPrefix(st.count, "epoch/"); a != 10 || e != 1 {
		t.Errorf("prefix sums: analyze %v, epochs %d", a, e)
	}
}

func TestMetricNamePattern(t *testing.T) {
	pattern := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, set := range [][]Metric{endToEnd, perLayer} {
		for _, m := range set {
			if !metricName.MatchString(m.Name) || !pattern.MatchString(m.Name) {
				t.Errorf("metric %q does not match the name pattern", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q declared twice", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better %q", m.Name, m.Better)
			}
		}
	}
	for _, bad := range []string{"", "wall s", "a/b", "_x", "ms:p50", "x" + string(make([]byte, 64))} {
		if metricName.MatchString(bad) {
			t.Errorf("name pattern accepted %q", bad)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the declared metrics and the
// repository's BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []Metric `json:"end_to_end"`
		PerLayer  []Metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []Metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the catalog %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, catalog %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks the printed result's shape.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds")
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.05, trace: trace, tiny: true}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed: %v", name, trace, out.failed, out.attempted, out.failures)
			}
			_, res := report(cfg, out)
			set := endToEnd
			if trace {
				set = perLayer
			}
			if !res.Correct || len(res.Metrics) != len(set) {
				t.Fatalf("%s trace=%v: result %+v", name, trace, res)
			}
			for _, m := range set {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or mis-united: %+v", name, trace, m.Name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v.Value)
				}
			}
		}
	}
}

// TestSeedsDetermineInputs checks that hotshift's seeded window
// offsets and store values repeat for a seed and differ across seeds.
func TestSeedsDetermineInputs(t *testing.T) {
	sz := hotshiftSizes(false)
	if windowOffset(1, 5, sz) != windowOffset(1, 5, sz) || storeValue(1, 5, 9) != storeValue(1, 5, 9) {
		t.Fatal("same seed gave different inputs")
	}
	if windowOffset(1, 0, sz) == windowOffset(2, 0, sz) && windowOffset(1, hotshiftHold, sz) == windowOffset(2, hotshiftHold, sz) {
		t.Fatal("different seeds gave the same windows")
	}
	if windowOffset(1, 0, sz) != windowOffset(1, hotshiftHold-1, sz) {
		t.Fatal("window moved before its hold expired")
	}
}
