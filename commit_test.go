package atmem

import (
	"context"
	"strings"
	"testing"

	"atmem/internal/core"
	"atmem/internal/faultinject"
	"atmem/internal/memsim"
	"atmem/internal/migrate"
)

// tamperEngine wraps a runtime's real migration engine and runs tamper
// after every successful Migrate — a stand-in for a migration bug that
// breaks one post-migration invariant.
type tamperEngine struct {
	migrate.Engine
	tamper func()
}

func (e *tamperEngine) Migrate(ctx context.Context, sys *memsim.System, regions []migrate.Region, target memsim.Tier) (migrate.Stats, error) {
	st, err := e.Engine.Migrate(ctx, sys, regions, target)
	if err == nil {
		e.tamper()
	}
	return st, err
}

// TestEveryMoverRunsMigrationInvariants pins that every path that moves
// bytes — one-shot Optimize, the governed epoch, a replayed epoch, and
// the scrubber's emergency evacuation — runs the post-migration checker:
// a leaked staging reservation (the ledger half) must surface as an
// error on each, and a changed object byte (the CRC half) on the
// stop-the-world placements that snapshot object checksums.
func TestEveryMoverRunsMigrationInvariants(t *testing.T) {
	leak := func(t *testing.T, rt *Runtime) func() {
		return func() {
			if err := rt.sys.Reserve(memsim.SmallPage, memsim.TierSlow); err != nil {
				t.Fatal(err)
			}
		}
	}
	flip := func(_ *testing.T, rt *Runtime) func() {
		o := rt.Objects()[0]
		return func() { o.data[0] ^= 0xff }
	}
	// Each mover builds its runtime, calls arm(rt) just before the
	// migration under test, and returns that migration's error.
	oneShot := func(t *testing.T, arm func(*Runtime)) error {
		rt, err := New(NVMDRAM(), WithPolicy(PolicyATMem), WithSamplePeriod(64))
		if err != nil {
			t.Fatal(err)
		}
		hot, err := NewArray[uint64](rt, "hot", 32<<10)
		if err != nil {
			t.Fatal(err)
		}
		fillDeterministic(hot, 7)
		rt.ProfilingStart()
		scanPhase(rt, "scan", hot)
		rt.ProfilingStop()
		arm(rt)
		_, err = rt.Optimize()
		return err
	}
	governed := func(t *testing.T, arm func(*Runtime)) error {
		rt, hot := replayFixture(t, nil)
		arm(rt)
		_, err := rt.RunEpoch("e", func() { scanPhase(rt, "e", hot) })
		return err
	}
	replayed := func(t *testing.T, arm func(*Runtime)) error {
		pc := core.NewPlanCache()
		rec, hot := replayFixture(t, pc)
		sig := rec.BuildSignature("synthetic", 1, []string{"scan"})
		if _, err := rec.ArmPlan(sig); err != nil {
			t.Fatal(err)
		}
		epochOn(t, rec, "e", hot)
		if _, err := rec.FinishPlan(); err != nil {
			t.Fatal(err)
		}
		rt, hot2 := replayFixture(t, pc)
		if v, err := rt.ArmPlan(sig); err != nil || v != core.LookupHit {
			t.Fatalf("ArmPlan = (%v, %v), want hit", v, err)
		}
		arm(rt)
		_, err := rt.RunEpoch("e", func() { scanPhase(rt, "e", hot2) })
		return err
	}
	evacuation := func(t *testing.T, arm func(*Runtime)) error {
		rt, hot, _ := healthFixture(t)
		epochOn(t, rt, "e1", hot)
		rt.ArmFaults(faultinject.Fault{
			Kind: faultinject.Corrupt, Nth: 1,
			Base: hot.Object().Base(), Size: hot.Object().Size(),
		})
		arm(rt)
		// An idle body attributes no samples, so the scrub pass's
		// emergency demotion is the epoch's only migration.
		_, err := rt.RunEpoch("e2", func() {})
		return err
	}

	cases := []struct {
		name   string
		mover  func(*testing.T, func(*Runtime)) error
		tamper func(*testing.T, *Runtime) func()
	}{
		{"one-shot/leak", oneShot, leak},
		{"governed/leak", governed, leak},
		{"replayed/leak", replayed, leak},
		{"evacuation/leak", evacuation, leak},
		{"one-shot/flip", oneShot, flip},
		{"governed/flip", governed, flip},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tampered := false
			err := tc.mover(t, func(rt *Runtime) {
				tamper := tc.tamper(t, rt)
				rt.engine = &tamperEngine{Engine: rt.engine, tamper: func() {
					tampered = true
					tamper()
				}}
			})
			if !tampered {
				t.Fatal("the mover never migrated; the assertion is vacuous")
			}
			if err == nil || !strings.Contains(err.Error(), "post-migration invariant violated") {
				t.Fatalf("err = %v, want a post-migration invariant violation", err)
			}
		})
	}
}
