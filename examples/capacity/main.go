// Capacity study: the Fig. 11 experiment. Compares the power budget each
// provisioning policy requires — statistical profiling (Govindan et al.,
// EuroSys'09) with under-provisioning u and overbooking δ on the historical
// placement, versus SmoothOperator with the same (u, δ) on the defragmented
// placement — at every level of the power tree.
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/powertree"
	"repro/internal/statprof"
	"repro/internal/workload"
)

func main() {
	cfg, err := repro.StandardDatacenter(repro.DC2, 2)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Gen.Step = 30 * time.Minute
	fleet, tree, err := repro.BuildDatacenter(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := repro.New(repro.Config{
		TopServices: 8,
		Seed:        1,
		Baseline:    repro.ObliviousBaseline(cfg.BaselineMix),
	}).Optimize(fleet, tree)
	if err != nil {
		log.Fatal(err)
	}
	baseline := res.BaselineTree
	testFn := powertree.PowerFn(workload.SubPowerFn(res.TestTraces))

	// Normalizer: StatProf(0,0) at each level.
	norm, err := statprof.StatProf(baseline, testFn, statprof.Config{})
	if err != nil {
		log.Fatal(err)
	}
	normAt := make(map[powertree.Level]float64)
	for _, r := range norm {
		normAt[r.Level] = r.Budget
	}

	fmt.Printf("required power budget, normalized to StatProf(0,0) — %s\n\n", cfg.Name)
	fmt.Println("  config       level   StatProf   SmoOp")
	for _, c := range statprof.PaperConfigs {
		sp, err := statprof.StatProf(baseline, testFn, c)
		if err != nil {
			log.Fatal(err)
		}
		so, err := statprof.SmoothOperator(res.OptimizedAggs, c)
		if err != nil {
			log.Fatal(err)
		}
		for i := range sp {
			fmt.Printf("  %-12s %-6s  %7.3f   %6.3f\n",
				c, sp[i].Level, sp[i].Budget/normAt[sp[i].Level], so[i].Budget/normAt[so[i].Level])
		}
		fmt.Println()
	}
	fmt.Println("SmoOp(0,0) beating StatProf(10,0.1) means the defragmented placement")
	fmt.Println("needs less budget than aggressive statistical overbooking — without")
	fmt.Println("relying on probabilistic guarantees (§5.2.1).")
}
