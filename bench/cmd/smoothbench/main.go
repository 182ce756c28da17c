// Command smoothbench is the repository's benchmark: it stands up a real
// core.Runtime behind the /v1 API in this process, drives one of four
// workloads against it closed-loop, prints every metric by name with its
// unit, checks the outputs, and exits non-zero if a check fails.
//
// Usage:
//
//	smoothbench -workload <name|all> -seed N [-seconds S] [-trace 0|1|2]
//	            [-size full|smoke] [-repeat N] [-out results.json] [-spans spans.json]
//	smoothbench -compare old.json new.json
//
// -trace 0 measures the end-to-end metrics; -trace 1 runs the same workload
// with the re-enactment spans and layer probes on and reports the per-layer
// metrics; -trace 2 does both and reports the tracing overhead. The last
// line of standard output is one JSON object {correct, attempted, failed,
// metrics} for the (last) run. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/bench/harness"
	"repro/bench/loads"
	"repro/internal/detmap"
)

// flags are the command's arguments.
type flags struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	size     string
	repeat   int
	out      string
	spans    string
	compare  bool
	spec     string
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&f.seed, "seed", 1, "seed for fleet generation, arrival order and demand draws")
	flag.Float64Var(&f.seconds, "seconds", -1, "seconds the timed phase measures (default: run_seconds of the spec)")
	flag.IntVar(&f.trace, "trace", 0, "0 end-to-end metrics, 1 per-layer metrics from a traced run, 2 both plus tracing overhead")
	flag.StringVar(&f.size, "size", "full", "full, or smoke (≈200 instances)")
	flag.IntVar(&f.repeat, "repeat", 1, "runs per workload, on seeds seed, seed+1, …")
	flag.StringVar(&f.out, "out", "", "append the runs to this result file")
	flag.StringVar(&f.spans, "spans", "", "write a traced run's spans to this file")
	flag.BoolVar(&f.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.StringVar(&f.spec, "spec", "BENCHMARK.json", "the benchmark contract")
	flag.Parse()
	if err := run(f, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "smoothbench:", err)
		os.Exit(1)
	}
}

func run(f flags, args []string) error {
	spec, err := harness.LoadSpec(f.spec)
	if err != nil {
		return err
	}
	if f.compare {
		return runCompare(spec, args)
	}
	if f.size != "full" && f.size != "smoke" {
		return fmt.Errorf("-size must be full or smoke, got %q", f.size)
	}
	if f.trace < 0 || f.trace > 2 {
		return fmt.Errorf("-trace must be 0, 1 or 2, got %d", f.trace)
	}
	if f.repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", f.repeat)
	}
	if f.seconds < 0 {
		f.seconds = float64(spec.RunSeconds)
	}
	var names []string
	for _, w := range loads.Workloads {
		if f.workload == "all" || f.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", f.workload)
	}

	var last *harness.Run
	bad := 0
	for _, w := range names {
		for i := 0; i < f.repeat; i++ {
			opt := loads.Options{Seed: f.seed + int64(i), Seconds: f.seconds, Small: f.size == "smoke"}
			var plain, traced *harness.Run
			if f.trace != 1 {
				if plain, err = one(spec, w, opt, f.out, ""); err != nil {
					return err
				}
				last = plain
			}
			if f.trace != 0 {
				opt.Traced = true
				if traced, err = one(spec, w, opt, f.out, f.spans); err != nil {
					return err
				}
				last = traced
			}
			for _, r := range []*harness.Run{plain, traced} {
				if r != nil && !r.Correct() {
					bad++
				}
			}
			if plain != nil && traced != nil {
				overhead(plain, traced)
			}
		}
	}
	line, err := last.ContractLine()
	if err != nil {
		return err
	}
	fmt.Println(line)
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed an output check or an operation", bad)
	}
	return nil
}

// one runs a workload once, checks what it emitted against the spec, prints
// it and appends it to the result file.
func one(spec *harness.Spec, workload string, opt loads.Options, out, spansOut string) (*harness.Run, error) {
	res, spans, err := loads.Run(workload, opt)
	if err != nil {
		return nil, err
	}
	res.Violations = append(res.Violations, spec.Check(opt.Traced, res.Metrics)...)
	if opt.Small && !opt.Traced {
		// A smoke run is cheap enough to make twice: the same seed must land
		// on the same placement and the same quality figures.
		again, _, err := loads.Run(workload, opt)
		if err != nil {
			return nil, err
		}
		for _, exact := range []string{"sum_leaf_peaks_w", "placed_pct"} {
			if again.Metrics[exact] != res.Metrics[exact] {
				res.Violations = append(res.Violations, fmt.Sprintf("same seed, %s differs: %v then %v", exact, res.Metrics[exact].Value, again.Metrics[exact].Value))
			}
		}
		if again.Digest != res.Digest {
			res.Violations = append(res.Violations, fmt.Sprintf("same seed, placement digest differs: %s then %s", res.Digest, again.Digest))
		}
	}
	show(res)
	if out != "" {
		if err := harness.Append(out, *res); err != nil {
			return nil, err
		}
	}
	if spansOut != "" && opt.Traced {
		raw, err := json.Marshal(spans)
		if err != nil {
			return nil, fmt.Errorf("encoding spans: %w", err)
		}
		if err := os.WriteFile(spansOut, raw, 0o644); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, nil
}

func show(r *harness.Run) {
	mode := "end-to-end"
	if r.Traced {
		mode = "traced, per-layer"
	}
	fmt.Printf("== %s  seed %d  size %s  %s  (%gs; commit %s, %s, nproc %d, GOMAXPROCS %d)\n",
		r.Workload, r.Seed, r.Size, mode, r.Seconds, r.Meta.Commit, r.Meta.GoVersion, r.Meta.NProc, r.Meta.GOMAXPROCS)
	fmt.Printf("   operations: attempted %d  succeeded %d  rejected %d  failed %d  headline samples %d  digest %s\n",
		r.Attempted, r.Succeeded, r.Rejected, r.Failed, r.Samples, r.Digest)
	fmt.Printf("   reference kernel: %.1f us in set-up, %.1f us in the timed phase; timings reported at %.0f us\n",
		r.RefSetupUs, r.RefPhaseUs, r.RefNominalUs)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, name := range detmap.SortedKeys(r.Metrics) {
		v := r.Metrics[name]
		fmt.Fprintf(tw, "   %s\t%.6g\t%s\n", name, v.Value, v.Unit)
	}
	tw.Flush()
	for _, v := range r.Violations {
		fmt.Printf("   CHECK FAILED: %s\n", v)
	}
}

// overhead reports what tracing cost: the traced run's own end-to-end
// readings against the untraced run of the same workload and seed.
func overhead(plain, traced *harness.Run) {
	for _, pair := range [][2]string{{"op_p50_ms", "traced.op_p50_ms"}, {"ops_per_s", "traced.ops_per_s"}} {
		base, with := plain.Metrics[pair[0]], traced.Metrics[pair[1]]
		if base.Value == 0 {
			continue
		}
		fmt.Printf("   tracing overhead on %s: %.6g → %.6g %s (×%.3f of the untraced %.6g)\n",
			pair[0], base.Value, with.Value, base.Unit, with.Value/base.Value, base.Value)
	}
}

func runCompare(spec *harness.Spec, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two result files, got %d", len(args))
	}
	base, err := harness.LoadFile(args[0])
	if err != nil {
		return err
	}
	next, err := harness.LoadFile(args[1])
	if err != nil {
		return err
	}
	if len(base.Runs) == 0 || len(next.Runs) == 0 {
		return fmt.Errorf("nothing to compare: %s has %d runs, %s has %d", args[0], len(base.Runs), args[1], len(next.Runs))
	}
	fmt.Printf("base: %s (commit %s)   new: %s (commit %s)\n", args[0], base.Runs[0].Meta.Commit, args[1], next.Runs[0].Meta.Commit)
	pairs, failedUp := harness.Compare(spec, base, next)
	if err := harness.WriteComparison(os.Stdout, pairs, failedUp); err != nil {
		return err
	}
	if harness.Regressed(pairs, failedUp) {
		return fmt.Errorf("regression: a pairing is worse than its bound or more operations failed")
	}
	return nil
}
