// Command smoothop runs the SmoothOperator pipeline end-to-end on one
// synthetic datacenter and prints the placement and reshaping reports: peak
// reduction per level, per-leaf asynchrony scores, conversion-fleet sizing,
// throughput improvements and slack reduction.
//
// Usage:
//
//	smoothop -dc DC3 -scale 2 -step 30m
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/detmap"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		dc        = flag.String("dc", "DC3", "datacenter: DC1, DC2 or DC3")
		scale     = flag.Int("scale", 4, "fleet scale multiplier")
		step      = flag.Duration("step", 10*time.Minute, "trace sampling interval")
		seed      = flag.Int64("seed", 1, "random seed")
		topB      = flag.Int("top", 8, "|B|: S-trace basis size")
		workers   = flag.Int("workers", 0, "worker goroutines for parallel stages (0 = SMOOTHOP_WORKERS or GOMAXPROCS); results are identical for any count")
		fleetFile = flag.String("fleet", "", "load a saved fleet (tracegen -format fleet) instead of generating")
		csvOut    = flag.String("csv", "", "write the throttle/boost run's time series as CSV to this file")
	)
	flag.Parse()

	if err := run(*dc, *scale, *step, *seed, *topB, *workers, *fleetFile, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, "smoothop:", err)
		os.Exit(1)
	}
}

func run(dc string, scale int, step time.Duration, seed int64, topB, workers int, fleetFile, csvOut string) error {
	cfg, err := workload.StandardDCConfig(workload.DCName(dc), scale)
	if err != nil {
		return err
	}
	cfg.Gen.Step = step
	var fleet *workload.Fleet
	var tree *powertree.Node
	if fleetFile != "" {
		f, err := os.Open(fleetFile)
		if err != nil {
			return err
		}
		fleet, err = workload.LoadFleet(f, workload.StandardProfiles())
		f.Close()
		if err != nil {
			return err
		}
		// Size the tree for the loaded fleet.
		cfg.Gen.Mix = map[string]int{}
		for _, inst := range fleet.Instances {
			cfg.Gen.Mix[inst.Service]++
		}
		refreshed, err := workload.StandardDCConfig(workload.DCName(dc), scale)
		if err != nil {
			return err
		}
		cfg.Topology = refreshed.Topology
		tree, err = powertree.Build(cfg.Topology)
		if err != nil {
			return err
		}
	} else {
		fleet, tree, err = workload.BuildDC(cfg)
		if err != nil {
			return err
		}
	}
	fmt.Printf("SmoothOperator — %s (%d instances, %d leaves, step %s)\n\n",
		dc, len(fleet.Instances), len(tree.Leaves()), step)

	fw := core.New(core.Config{
		TopServices: topB,
		Seed:        seed,
		Baseline:    placement.Oblivious{MixFraction: cfg.BaselineMix},
		Latency:     sim.LatencyModel{ServiceTimeMs: 2, SLAms: 92},
		Workers:     workers,
	})
	pr, err := fw.Optimize(fleet, tree)
	if err != nil {
		return err
	}

	fmt.Println("Peak power reduction by level (held-out week):")
	for _, rep := range pr.PeakReports {
		fmt.Printf("  %-6s %12.1f -> %12.1f   %6.2f%%\n", rep.Level, rep.Before, rep.After, rep.ReductionPct)
	}

	fmt.Println("\nLeaf asynchrony scores (higher is better):")
	fmt.Printf("  oblivious:      mean %.3f  min %.3f\n", meanOf(pr.BaselineLeafScores), minOf(pr.BaselineLeafScores))
	fmt.Printf("  workload-aware: mean %.3f  min %.3f\n", meanOf(pr.OptimizedLeafScores), minOf(pr.OptimizedLeafScores))

	extra, err := metrics.ExtraServers(pr.OptimizedAggs, 310)
	if err != nil {
		return err
	}
	extraBase, err := metrics.ExtraServers(pr.BaselineAggs, 310)
	if err != nil {
		return err
	}
	fmt.Printf("\nExtra 310W servers hostable: %d (oblivious: %d)\n", extra, extraBase)

	fmt.Println()
	fmt.Print(metrics.UtilizationReport(pr.OptimizedAggs))
	fmt.Println()
	fmt.Print(metrics.FormatFragmented(metrics.FragmentedNodes(pr.BaselineAggs, 3)))

	rr, err := fw.Reshape(fleet, pr)
	if err != nil {
		return err
	}
	fmt.Printf("\nDynamic power profile reshaping (Lconv=%.3f):\n", rr.Lconv)
	fmt.Printf("  fleet: %d LC + %d Batch; conversion pool %d + %d throttle-enabled\n",
		rr.NLC, rr.NBatch, rr.NConv, rr.NThrottleConv)
	fmt.Printf("  static LC-only:      LC %+6.1f%%  Batch %+6.1f%%\n", rr.StaticImp.LCPct, rr.StaticImp.BatchPct)
	fmt.Printf("  server conversion:   LC %+6.1f%%  Batch %+6.1f%%\n", rr.ConvImp.LCPct, rr.ConvImp.BatchPct)
	fmt.Printf("  + throttle & boost:  LC %+6.1f%%  Batch %+6.1f%%\n", rr.TBImp.LCPct, rr.TBImp.BatchPct)
	fmt.Printf("  avg power slack reduction:      %.1f%%\n", rr.AvgSlackReductionPct)
	fmt.Printf("  off-peak power slack reduction: %.1f%%\n", rr.OffPeakSlackReductionPct)
	if rr.TBLatency != nil {
		fmt.Printf("  p99 latency (TB run): mean-of-mean %.1f ms, peak %.1f ms, SLA violations %d\n",
			rr.TBLatency.MeanMs, rr.TBLatency.PeakP99Ms, rr.TBLatency.SLAViolations)
	}
	if csvOut != "" {
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rr.ThrottleBoost.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("\nthrottle/boost time series written to %s\n", csvOut)
	}
	return nil
}

func meanOf(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	var s float64
	for _, k := range detmap.SortedKeys(m) {
		s += m[k]
	}
	return s / float64(len(m))
}

func minOf(m map[string]float64) float64 {
	keys := detmap.SortedKeys(m)
	if len(keys) == 0 {
		return 0
	}
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	sort.Float64s(vals)
	return vals[0]
}
