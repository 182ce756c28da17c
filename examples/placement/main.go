// Placement study: the Fig. 9/Fig. 10 experiment on one datacenter. Shows
// how the workload-aware placer smooths every child node's power trace under
// a mid-level power node and how much leaf-level peak it removes, comparing
// against the oblivious and random baselines.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/workload"
)

func main() {
	cfg, err := repro.StandardDatacenter(repro.DC3, 2)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Gen.Step = 30 * time.Minute
	fleet, tree, err := repro.BuildDatacenter(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Train/test split per the paper: average the first two weeks, evaluate
	// on the third.
	avg, err := fleet.AveragedITraces(2)
	if err != nil {
		log.Fatal(err)
	}
	test, err := fleet.SplitWeeks(2)
	if err != nil {
		log.Fatal(err)
	}
	trainFn := placement.TraceFn(workload.SubPowerFn(avg))
	testFn := powertree.PowerFn(workload.SubPowerFn(test))

	instances := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}

	placers := []struct {
		name   string
		placer placement.Placer
	}{
		{"oblivious (historical)", placement.Oblivious{MixFraction: cfg.BaselineMix}},
		{"random", placement.Random{Seed: 1}},
		{"workload-aware", placement.WorkloadAware{TopServices: 8, Seed: 1}},
	}

	fmt.Printf("placement study — %s, %d instances\n\n", cfg.Name, len(instances))
	// One aggregation of each placed tree over the test week serves every
	// report below.
	var trees []*powertree.Node
	var ledgers []*powertree.Aggregates
	for _, p := range placers {
		tr := tree.Clone()
		if err := p.placer.Place(tr, instances, trainFn); err != nil {
			log.Fatal(err)
		}
		aggs, err := tr.AggregateAll(testFn)
		if err != nil {
			log.Fatal(err)
		}
		trees, ledgers = append(trees, tr), append(ledgers, aggs)
		extra, err := metrics.ExtraServers(aggs, 310)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s sum of leaf peaks %10.0f  extra 310W servers %d\n", p.name, aggs.SumOfPeaks(powertree.RPP), extra)
	}

	// Fig. 9 style: children of the first MSB before/after.
	msb := trees[0].NodesAtLevel(powertree.MSB)[0]
	fmt.Printf("\nchildren of %s (peak / swing):\n", msb.Name)
	show := func(label string, n *powertree.Node, aggs *powertree.Aggregates) {
		for i, c := range n.Children {
			agg, _ := aggs.Trace(c)
			if agg.Empty() {
				continue
			}
			// Guard the all-zero-trace case: Peak() is 0 there (the
			// empty-series convention), and the swing ratio would be NaN.
			swing := 0.0
			if p := agg.Peak(); p > 0 {
				swing = 100 * (p - agg.Min()) / p
			}
			fmt.Printf("  %-10s child%-2d  peak %8.0f  swing %5.1f%%\n",
				label, i+1, agg.Peak(), swing)
		}
	}
	show("oblivious", msb, ledgers[0])
	show("smoothop", trees[2].Find(msb.Name), ledgers[2])

	// Per-level reduction (Fig. 10 for this DC).
	fmt.Println("\npeak reduction vs oblivious:")
	for _, rep := range metrics.PeakReduction(ledgers[0], ledgers[2]) {
		fmt.Printf("  %-6s %6.2f%%\n", rep.Level, rep.ReductionPct)
	}
}
