// Service study: SmoothOperator operated as a long-running service through
// the public Runtime API. Power telemetry streams into the trace store for
// two weeks, the initial placement is bootstrapped from that history, and
// weekly ticks then watch fresh telemetry for drift, repairing the
// placement incrementally when fragmentation re-appears.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/workload"
)

func main() {
	cfg, err := repro.StandardDatacenter(repro.DC2, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Gen.Step = time.Hour
	cfg.Gen.Weeks = 3
	fleet, tree, err := repro.BuildDatacenter(cfg)
	if err != nil {
		log.Fatal(err)
	}

	store := repro.NewTraceStore(repro.TraceStoreConfig{
		Step:      time.Hour,
		Retention: 4 * 7 * 24 * time.Hour,
	})
	rt, err := repro.NewRuntime(
		repro.New(repro.Config{TopServices: 8, Seed: 1}),
		store, tree,
		repro.RuntimeConfig{ScoreFloor: 1.25, MaxSwapsPerTick: 24},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Stream the first two weeks of "sensor readings" into the store.
	start := fleet.Instances[0].Trace.Start
	twoWeeks := start.Add(2 * 7 * 24 * time.Hour)
	streamWindow(rt, fleet, start, twoWeeks)
	fmt.Printf("ingested 2 weeks of telemetry for %d instances\n", len(fleet.Instances))

	// Bootstrap the placement from collected history (Eq. 4 from telemetry).
	instances := make([]repro.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = repro.Instance{ID: inst.ID, Service: inst.Service}
	}
	if err := rt.Bootstrap(instances, twoWeeks, 2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrapped placement across %d leaves\n",
		len(rt.Tree().NodesAtLevel(repro.LevelRPP)))

	// Week 3 arrives; tick the monitor at its end.
	threeWeeks := twoWeeks.Add(7 * 24 * time.Hour)
	streamWindow(rt, fleet, twoWeeks, threeWeeks)
	rep, err := rt.Tick(threeWeeks, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nweekly tick: worst leaf %s (asynchrony %.3f), sum of leaf peaks %.0f\n",
		rep.WorstNode, rep.WorstScore, rep.SumOfPeaks)
	if len(rep.Swaps) == 0 {
		fmt.Println("no drift: placement still smooth, no swaps needed")
	} else {
		fmt.Printf("drift detected: repaired with %d incremental swaps\n", len(rep.Swaps))
	}
	fmt.Printf("runtime history: %d tick(s)\n", len(rt.History()))
}

// streamWindow replays the generated traces into the runtime as if sensors
// were reporting live, each instance's readings in the window as one run
// (the traces are sampled at the store's step).
func streamWindow(rt *repro.Runtime, fleet *workload.Fleet, from, to time.Time) {
	for _, inst := range fleet.Instances {
		tr := inst.Trace
		lo, hi := tr.Within(from, to)
		if err := rt.IngestRun(inst.ID, tr.TimeAt(lo), tr.Values[lo:hi]); err != nil {
			log.Fatal(err)
		}
	}
}
