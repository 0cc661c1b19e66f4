package atmem_test

import (
	"reflect"
	"testing"

	"atmem"
	"atmem/apps"
	"atmem/internal/core"
	"atmem/internal/memsim"
)

// TestDeterministicSimulation: two fresh runtimes running the same
// scatter kernel produce identical simulated times (PageRank's access
// streams are fixed per thread regardless of interleaving).
func TestDeterministicSimulation(t *testing.T) {
	run := func() float64 {
		rt, err := atmem.NewRuntime(atmem.NVMDRAM())
		if err != nil {
			t.Fatal(err)
		}
		k, err := apps.New("pr")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Setup(rt, "pokec"); err != nil {
			t.Fatal(err)
		}
		k.RunIteration(rt)
		return k.RunIteration(rt).Seconds
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("simulated times differ across identical runs: %v vs %v", a, b)
	}
}

// TestKNLCapacityPressure: the three large datasets exceed the scaled
// MCDRAM capacity, as on the real machine (§7.2) — all-fast placement
// must fail for them while the preferred policy spills gracefully.
func TestKNLCapacityPressure(t *testing.T) {
	for _, ds := range []string{"twitter", "rmat27", "friendster"} {
		rt, err := atmem.NewRuntime(atmem.MCDRAMDRAM(), atmem.Options{Policy: atmem.PolicyAllFast})
		if err != nil {
			t.Fatal(err)
		}
		k, err := apps.New("pr")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Setup(rt, ds); err == nil {
			t.Errorf("%s: all-MCDRAM placement succeeded but must exceed capacity", ds)
		}
	}
	// pokec and rmat24 fit entirely, as in the paper's Figure 10.
	for _, ds := range []string{"pokec", "rmat24"} {
		rt, err := atmem.NewRuntime(atmem.MCDRAMDRAM(), atmem.Options{Policy: atmem.PolicyAllFast})
		if err != nil {
			t.Fatal(err)
		}
		k, err := apps.New("pr")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Setup(rt, ds); err != nil {
			t.Errorf("%s: should fit in MCDRAM: %v", ds, err)
		}
	}
	// PreferFast always succeeds by spilling to DDR4.
	rt, err := atmem.NewRuntime(atmem.MCDRAMDRAM(), atmem.Options{Policy: atmem.PolicyPreferFast})
	if err != nil {
		t.Fatal(err)
	}
	k, err := apps.New("pr")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Setup(rt, "friendster"); err != nil {
		t.Errorf("preferred policy failed to spill: %v", err)
	}
}

// TestEpsilonSweepEndToEnd: sweeping ε through Options.Analyzer spans a
// wide data-ratio range and never corrupts results (the fig9/fig10
// mechanism at the API level).
func TestEpsilonSweepEndToEnd(t *testing.T) {
	ratioAt := func(eps float64) float64 {
		cfg := core.DefaultConfig()
		cfg.Epsilon = eps
		rt, err := atmem.NewRuntime(atmem.NVMDRAM(), atmem.Options{
			Policy: atmem.PolicyATMem, Analyzer: cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		k, err := apps.New("bfs")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Setup(rt, "pokec"); err != nil {
			t.Fatal(err)
		}
		rt.ProfilingStart()
		k.RunIteration(rt)
		rt.ProfilingStop()
		if _, err := rt.Optimize(); err != nil {
			t.Fatal(err)
		}
		k.RunIteration(rt)
		if err := k.Validate(); err != nil {
			t.Fatalf("eps=%v corrupted results: %v", eps, err)
		}
		return rt.FastDataRatio()
	}
	greedy := ratioAt(0.02)
	frugal := ratioAt(0.999)
	if greedy < 0.5 {
		t.Errorf("ε=0.02 selected only %.1f%%, want most of the data", 100*greedy)
	}
	if frugal > 0.3 {
		t.Errorf("ε=0.999 selected %.1f%%, want a small fraction", 100*frugal)
	}
	if frugal >= greedy {
		t.Errorf("sweep not monotone: %.2f at 0.999 >= %.2f at 0.02", frugal, greedy)
	}
}

// TestFullPipelineOnBothTestbeds exercises profile→analyze→migrate→rerun
// for every kernel on both testbeds with capacity budgeting active.
func TestFullPipelineOnBothTestbeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	for _, tb := range []atmem.Testbed{atmem.NVMDRAM(), atmem.MCDRAMDRAM()} {
		for _, name := range []string{"bfs", "pr", "cc"} {
			t.Run(tb.Name()+"/"+name, func(t *testing.T) {
				rt, err := atmem.NewRuntime(tb, atmem.Options{Policy: atmem.PolicyATMem})
				if err != nil {
					t.Fatal(err)
				}
				k, err := apps.New(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Setup(rt, "rmat24"); err != nil {
					t.Fatal(err)
				}
				rt.ProfilingStart()
				k.RunIteration(rt)
				rt.ProfilingStop()
				rep, err := rt.Optimize()
				if err != nil {
					t.Fatal(err)
				}
				// The selection must respect the fast tier's capacity.
				fastCap := tb.Params().Tiers[memsim.TierFast].CapacityBytes
				if rep.SelectedBytes > fastCap {
					t.Errorf("selected %d exceeds fast capacity %d", rep.SelectedBytes, fastCap)
				}
				k.RunIteration(rt)
				if err := k.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestOneShotEqualsFirstGovernedEpoch: one-shot Optimize and a governed
// runtime's first epoch run the same placement stage on the same
// samples, so they select, move and charge exactly the same bytes. The
// frontier kernels (bfs, sssp, bc) are left out: their one-shot
// placement already varies run to run with thread interleaving.
func TestOneShotEqualsFirstGovernedEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("rmat24 pipelines in -short mode")
	}
	run := func(t *testing.T, tb atmem.Testbed, name string, governed bool) (atmem.MigrationReport, []atmem.ObjectPlacement) {
		t.Helper()
		var opts []atmem.Option
		if governed {
			opts = append(opts, atmem.WithGovernor(atmem.GovernorOptions{}))
		}
		rt, err := atmem.New(tb, opts...)
		if err != nil {
			t.Fatal(err)
		}
		k, err := apps.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Setup(rt, "rmat24"); err != nil {
			t.Fatal(err)
		}
		var rep atmem.MigrationReport
		if governed {
			ep, err := rt.RunEpoch("e1", func() { k.RunIteration(rt) })
			if err != nil {
				t.Fatal(err)
			}
			if !ep.Optimized {
				t.Fatal("governed epoch did not place")
			}
			rep = ep.Migration
		} else {
			rt.ProfilingStart()
			k.RunIteration(rt)
			rt.ProfilingStop()
			if rep, err = rt.Optimize(); err != nil {
				t.Fatal(err)
			}
		}
		return rep, rt.PlacementSummary()
	}
	for _, tb := range []atmem.Testbed{atmem.NVMDRAM(), atmem.MCDRAMDRAM()} {
		for _, name := range []string{"pr", "cc"} {
			t.Run(tb.Name()+"/"+name, func(t *testing.T) {
				one, onePl := run(t, tb, name, false)
				gov, govPl := run(t, tb, name, true)
				if one.BytesMoved == 0 {
					t.Fatal("one-shot placement moved nothing")
				}
				if one.SelectedBytes != gov.SelectedBytes || one.BytesMoved != gov.BytesMoved ||
					one.Regions != gov.Regions || one.Seconds != gov.Seconds {
					t.Errorf("one-shot selected/moved/regions/seconds %d/%d/%d/%v, governed %d/%d/%d/%v",
						one.SelectedBytes, one.BytesMoved, one.Regions, one.Seconds,
						gov.SelectedBytes, gov.BytesMoved, gov.Regions, gov.Seconds)
				}
				if !reflect.DeepEqual(onePl, govPl) {
					t.Errorf("placement differs:\none-shot %+v\ngoverned %+v", onePl, govPl)
				}
			})
		}
	}
}

// TestMigrationReportConsistency: the migration report's byte accounting
// agrees with the actual placement.
func TestMigrationReportConsistency(t *testing.T) {
	rt, err := atmem.NewRuntime(atmem.NVMDRAM(), atmem.Options{Policy: atmem.PolicyATMem})
	if err != nil {
		t.Fatal(err)
	}
	k, err := apps.New("pr")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Setup(rt, "pokec"); err != nil {
		t.Fatal(err)
	}
	rt.ProfilingStart()
	k.RunIteration(rt)
	rt.ProfilingStop()
	rep, err := rt.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampledBytes+rep.EstimatedBytes != rep.SelectedBytes {
		t.Errorf("byte split %d+%d != selected %d",
			rep.SampledBytes, rep.EstimatedBytes, rep.SelectedBytes)
	}
	var fast uint64
	for _, op := range rt.PlacementSummary() {
		fast += op.FastBytes
	}
	// Everything selected was moved to fast memory (page rounding can
	// add up to a page per region).
	if fast < rep.SelectedBytes {
		t.Errorf("fast bytes %d below selected %d", fast, rep.SelectedBytes)
	}
}
