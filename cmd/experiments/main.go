// Command experiments regenerates the paper's tables and figures on the
// synthetic datacenters.
//
// Usage:
//
//	experiments -all                  # every figure + table + ablations
//	experiments -fig 10               # one figure
//	experiments -table 1              # the qualitative comparison table
//	experiments -ablations            # design-choice ablations
//	experiments -extensions           # UPS/capping/routing studies + sensitivity sweeps
//	experiments -frag-sweep           # online-placement fragmentation-rate sweep
//	experiments -multidim-sweep       # multi-resource stranded-node sweep
//	experiments -scale 4 -step 10m    # sizing knobs (paper-fidelity defaults)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure number to regenerate (5,6,8,9,10,11,12,13,14)")
		table      = flag.Int("table", 0, "table number to regenerate (1)")
		all        = flag.Bool("all", false, "regenerate everything")
		ablations  = flag.Bool("ablations", false, "run design-choice ablations")
		extensions = flag.Bool("extensions", false, "run extension studies (UPS baseline, capping frequency)")
		fragSweep  = flag.Bool("frag-sweep", false, "run the online-placement power-fragmentation sweep")
		multiDim   = flag.Bool("multidim-sweep", false, "run the multi-resource stranded-node sweep")
		scale      = flag.Int("scale", 4, "fleet scale multiplier")
		step       = flag.Duration("step", 10*time.Minute, "trace sampling interval")
		seed       = flag.Int64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "worker goroutines for parallel stages (0 = SMOOTHOP_WORKERS or GOMAXPROCS); results are identical for any count")
		csvDir     = flag.String("csv-dir", "", "also dump every figure's data as CSV files into this directory")
		dcFlag     = flag.String("dc", "", "comma-separated subset of datacenters to run (default: DC1,DC2,DC3)")
	)
	flag.Parse()

	dcs, err := parseDCs(*dcFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	opt := experiments.Options{Scale: *scale, Step: *step, Seed: *seed, Workers: *workers}
	if err := run(opt, dcs, *fig, *table, *all, *ablations, *extensions, *fragSweep, *multiDim, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// parseDCs turns the -dc flag into a validated datacenter subset, each
// datacenter at most once. An empty flag selects every datacenter.
func parseDCs(s string) ([]workload.DCName, error) {
	if s == "" {
		return workload.AllDCs, nil
	}
	var dcs []workload.DCName
	for _, field := range strings.Split(s, ",") {
		name := workload.DCName(strings.TrimSpace(field))
		if name == "" {
			continue
		}
		if !containsDC(workload.AllDCs, name) {
			return nil, fmt.Errorf("unknown datacenter %q (valid: DC1, DC2, DC3)", name)
		}
		if containsDC(dcs, name) {
			return nil, fmt.Errorf("datacenter %q listed twice", name)
		}
		dcs = append(dcs, name)
	}
	if len(dcs) == 0 {
		return nil, errors.New("flag -dc lists no datacenters")
	}
	return dcs, nil
}

func containsDC(dcs []workload.DCName, name workload.DCName) bool {
	for _, dc := range dcs {
		if dc == name {
			return true
		}
	}
	return false
}

func joinDCs(dcs []workload.DCName) string {
	names := make([]string, len(dcs))
	for i, dc := range dcs {
		names[i] = string(dc)
	}
	return strings.Join(names, ", ")
}

// findRun locates one datacenter's pipeline output by name.
func findRun(runs []*experiments.DCRun, name workload.DCName) *experiments.DCRun {
	for _, r := range runs {
		if r.Name == name {
			return r
		}
	}
	return nil
}

func run(opt experiments.Options, dcs []workload.DCName, fig, table int, all, ablations, extensions, fragSweep, multiDim bool, csvDir string) error {
	if !all && fig == 0 && table == 0 && !ablations && !extensions && !fragSweep && !multiDim && csvDir == "" {
		all = true
	}
	if len(dcs) == 0 {
		dcs = workload.AllDCs
	}
	if (all || fig == 9) && !containsDC(dcs, workload.DC3) {
		return errors.New("fig 9 requires DC3; rerun with -dc including DC3")
	}
	var runs []*experiments.DCRun
	needRuns := all || (fig >= 9 && fig <= 14) || csvDir != ""
	if needRuns {
		var err error
		fmt.Fprintf(os.Stderr, "running placement + reshaping pipeline for %s...\n", joinDCs(dcs))
		runs, err = experiments.RunSome(dcs, opt)
		if err != nil {
			return err
		}
	}

	show := func(n int) bool { return all || fig == n }

	if show(5) {
		rows, err := experiments.Fig5(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig5(rows))
	}
	if show(6) {
		series, err := experiments.Fig6(opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig6(series))
	}
	if show(8) {
		points, err := experiments.Fig8(opt, 6)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig8(points))
	}
	if show(9) {
		dc3 := findRun(runs, workload.DC3) // DC3: clearest fragmentation
		if dc3 == nil {
			return errors.New("fig 9 requires DC3 but its pipeline run is missing")
		}
		r, err := experiments.Fig9(dc3)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig9(r))
	}
	if show(10) {
		rows, err := experiments.Fig10(runs)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig10(rows))
	}
	if show(11) {
		rows, err := experiments.Fig11(runs)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig11(rows))
	}
	if show(12) {
		for _, run := range runs {
			s, err := experiments.Fig12(run)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatFig12(s))
		}
	}
	if show(13) {
		rows, err := experiments.Fig13(runs)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig13(rows))
	}
	if show(14) {
		rows, err := experiments.Fig14(runs)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig14(rows))
	}
	if all || table == 1 {
		fmt.Println(experiments.FormatTable1(experiments.Table1()))
	}
	if all || ablations {
		dc := workload.DC3
		emb, err := experiments.AblationEmbedding(dc, opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblation("I-to-S vs I-to-I embedding ("+string(dc)+")", emb))
		clus, err := experiments.AblationClustering(dc, opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblation("balanced vs plain k-means ("+string(dc)+")", clus))
		basis, err := experiments.AblationBasisSize(dc, opt, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblation("S-trace basis size |B| ("+string(dc)+")", basis))
		scope, err := experiments.AblationBasisScope(dc, opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblation("per-subtree vs global basis ("+string(dc)+")", scope))
		weeks, err := experiments.AblationTrainWeeks(dc, opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblation("training weeks ("+string(dc)+")", weeks))
		remap, err := experiments.AblationRemap(dc, opt, 64)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblation("remap-only vs full placement ("+string(dc)+")", remap))
		fc, err := experiments.AblationForecast(dc, opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblation("averaged vs forecast traces ("+string(dc)+")", fc))
	}
	if all || extensions {
		for _, dc := range dcs {
			cmp, err := experiments.ExtensionESD(dc, opt, 10, 1.02)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatESD(cmp))
		}
		study, err := experiments.ExtensionCapping(workload.DC3, opt, 1.02)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatCapping(study))
		routing, err := experiments.ExtensionRouting(workload.DC3, opt, 8)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatRouting(routing))
		jitter, err := experiments.SweepHeterogeneity(workload.DC3, opt, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatSensitivity("instance phase jitter (DC3)", "jitter-h", jitter))
		mix, err := experiments.SweepBaselineMix(workload.DC3, opt, nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatSensitivity("baseline mix fraction (DC3)", "mix", mix))
	}
	if all || fragSweep {
		for _, dc := range dcs {
			rows, err := experiments.FragSweep(dc, opt, nil)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatFragSweep(dc, rows))
		}
	}
	if all || multiDim {
		for _, dc := range dcs {
			rows, err := experiments.MultiDimSweep(dc, opt)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatMultiDimSweep(dc, rows))
		}
	}
	if csvDir != "" {
		if err := experiments.WriteCSVs(csvDir, runs, opt); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "figure CSVs written to %s\n", csvDir)
	}
	return nil
}
