// Command migration compares the two data-migration mechanisms of §7.3
// head to head on both simulated testbeds: ATMem's multi-stage
// multi-threaded application-level migration versus the mbind-style
// system service. It reports the migration time, the post-migration TLB
// misses during the next PageRank iteration, and the huge pages each
// mechanism splintered.
package main

import (
	"fmt"
	"log"

	"atmem"
	"atmem/apps"
)

type outcome struct {
	migSeconds float64
	tlbMisses  uint64
	hugeSplit  int
	iterAfter  float64
}

func run(tb atmem.Testbed, mech atmem.MigrationMechanism) (outcome, error) {
	rt, err := atmem.New(tb, atmem.WithPlacementPolicy(atmem.PaperPolicy()), atmem.WithEngine(mech))
	if err != nil {
		return outcome{}, err
	}
	k, err := apps.New("pr")
	if err != nil {
		return outcome{}, err
	}
	if err := k.Setup(rt, "friendster"); err != nil {
		return outcome{}, err
	}
	rt.ProfilingStart()
	k.RunIteration(rt)
	rt.ProfilingStop()
	rep, err := rt.Optimize()
	if err != nil {
		return outcome{}, err
	}
	it := k.RunIteration(rt)
	if err := k.Validate(); err != nil {
		return outcome{}, err
	}
	return outcome{
		migSeconds: rep.Seconds,
		tlbMisses:  it.TLBMisses(),
		hugeSplit:  rep.HugePagesSplit,
		iterAfter:  it.Seconds,
	}, nil
}

func main() {
	fmt.Println("== migration mechanisms on PageRank/friendster (§7.3) ==")
	for _, tb := range []atmem.Testbed{atmem.NVMDRAM(), atmem.MCDRAMDRAM()} {
		at, err := run(tb, atmem.MigrateATMem)
		if err != nil {
			log.Fatal(err)
		}
		mb, err := run(tb, atmem.MigrateMbind)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n-- %s --\n", tb.Name())
		fmt.Printf("%-22s %-14s %-16s %-12s\n", "mechanism", "migration(s)", "post-TLB-misses", "huge-split")
		fmt.Printf("%-22s %-14.6f %-16d %-12d\n", "atmem (multi-stage)", at.migSeconds, at.tlbMisses, at.hugeSplit)
		fmt.Printf("%-22s %-14.6f %-16d %-12d\n", "mbind (system)", mb.migSeconds, mb.tlbMisses, mb.hugeSplit)
		fmt.Printf("reduction: %.2fx migration time, %.2fx TLB misses\n",
			mb.migSeconds/at.migSeconds,
			float64(mb.tlbMisses)/float64(max(at.tlbMisses, 1)))
	}
}
