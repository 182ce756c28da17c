// Command smoothopd operates SmoothOperator as a (replayed) service: it
// streams synthetic telemetry into the trace store week by week, bootstraps
// the placement from collected history, ticks the drift monitor at every
// week boundary, and reports what the monitor saw and repaired. The final
// placed tree can be checkpointed to JSON for inspection.
//
// Usage:
//
//	smoothopd -dc DC2 -scale 1 -weeks 5 -step 30m -tree-out tree.json
//
// With -faults light|heavy the telemetry stream passes through a seeded
// fault injector (sensor dropout, stuck/spiky readings, clock skew,
// reordering, transient store errors, plus a scheduled breaker trip on the
// first leaf), and the runtime's graceful-degradation layer — quarantine,
// reference-trace fallback, ingest retry, emergency capping — absorbs it.
// -soak replays the same weeks twice, clean and faulted, and fails if the
// faulted run's leaf-peak totals drift beyond -soak-drift percent of the
// clean run.
//
// With -listen the daemon serves the runtime's HTTP API, versioned under
// /v1/ (including GET /v1/metrics in Prometheus text format), after the
// replay; -metrics dumps the metric registry to stderr periodically and
// once at replay end, and -pprof additionally mounts net/http/pprof under
// /debug/pprof/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// options collects the daemon's flag values.
type options struct {
	dc           string
	scale        int
	step         time.Duration
	weeks        int
	seed         int64
	floor        float64
	swaps        int
	treeOut      string
	listen       string
	metricsEvery time.Duration
	pprof        bool

	planMaxInflight int
	planDeadline    time.Duration

	faultsMode string
	faultSeed  int64
	faultDays  int
	soak       bool
	soakDrift  float64
}

// Named flag-validation errors, so scripts (and tests) can tell the failure
// modes apart with errors.Is.
var (
	errBadWeeks     = errors.New("-weeks must be ≥ 3 (2 training + 1 tick)")
	errBadScale     = errors.New("-scale must be ≥ 1")
	errBadStep      = errors.New("-step must be positive")
	errBadSwaps     = errors.New("-swaps must be ≥ 0")
	errBadFloor     = errors.New("-floor must be positive")
	errBadFaults    = errors.New(`-faults must be "off", "light" or "heavy"`)
	errBadFaultDays = errors.New("-fault-days must be ≥ 0")
	errBadDrift     = errors.New("-soak-drift must be positive")
	errBadPlanMax   = errors.New("-plan-max-inflight must not be negative (0 means the default)")
	errBadPlanDL    = errors.New("-plan-deadline must not be negative (0 means the default)")
	errSoakNoFaults = errors.New("-soak needs -faults light or heavy (a clean soak compares nothing)")
	errSoakDrift    = errors.New("soak: faulted replay drifted beyond the bound")
)

// validate rejects nonsensical flag combinations up front, before any work
// (a bad -scale or -step would otherwise fail deep inside workload.BuildDC,
// and a negative -floor would disable remapping silently).
func validate(o options) error {
	if o.weeks < 3 {
		return fmt.Errorf("%w, got %d", errBadWeeks, o.weeks)
	}
	if o.scale < 1 {
		return fmt.Errorf("%w, got %d", errBadScale, o.scale)
	}
	if o.step <= 0 {
		return fmt.Errorf("%w, got %s", errBadStep, o.step)
	}
	if o.swaps < 0 {
		return fmt.Errorf("%w, got %d", errBadSwaps, o.swaps)
	}
	if o.floor <= 0 {
		return fmt.Errorf("%w, got %g", errBadFloor, o.floor)
	}
	switch o.faultsMode {
	case "", "off", "light", "heavy":
	default:
		return fmt.Errorf("%w, got %q", errBadFaults, o.faultsMode)
	}
	if o.faultDays < 0 {
		return fmt.Errorf("%w, got %d", errBadFaultDays, o.faultDays)
	}
	if o.planMaxInflight < 0 {
		return fmt.Errorf("%w, got %d", errBadPlanMax, o.planMaxInflight)
	}
	if o.planDeadline < 0 {
		return fmt.Errorf("%w, got %s", errBadPlanDL, o.planDeadline)
	}
	if o.soak {
		if o.soakDrift <= 0 {
			return fmt.Errorf("%w, got %g", errBadDrift, o.soakDrift)
		}
		if o.faultsMode == "" || o.faultsMode == "off" {
			return errSoakNoFaults
		}
	}
	return nil
}

// listenAndServe is swapped out by the smoke test to capture the handler
// instead of binding a socket; out is swapped to capture the replay report.
var (
	listenAndServe           = http.ListenAndServe
	out            io.Writer = os.Stdout
)

func main() {
	var o options
	flag.StringVar(&o.dc, "dc", "DC2", "datacenter: DC1, DC2 or DC3")
	flag.IntVar(&o.scale, "scale", 1, "fleet scale multiplier")
	flag.DurationVar(&o.step, "step", 30*time.Minute, "trace sampling interval")
	flag.IntVar(&o.weeks, "weeks", 5, "total weeks to replay (≥3: 2 training + ticks)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.Float64Var(&o.floor, "floor", 1.25, "leaf asynchrony score floor that triggers remapping")
	flag.IntVar(&o.swaps, "swaps", 24, "max swaps per weekly repair")
	flag.StringVar(&o.treeOut, "tree-out", "", "write the final placed tree as JSON to this file")
	flag.StringVar(&o.listen, "listen", "", "after the replay, serve the runtime's HTTP API on this address (e.g. :8080) until interrupted")
	flag.DurationVar(&o.metricsEvery, "metrics", 0, "dump the metric registry to stderr at this interval during the replay (0 disables)")
	flag.BoolVar(&o.pprof, "pprof", false, "with -listen, also mount net/http/pprof under /debug/pprof/")
	flag.IntVar(&o.planMaxInflight, "plan-max-inflight", plan.DefaultMaxInFlight, "concurrent POST /v1/plan evaluations before requests shed with 429")
	flag.DurationVar(&o.planDeadline, "plan-deadline", plan.DefaultDeadline, "per-query deadline for POST /v1/plan evaluations")
	flag.StringVar(&o.faultsMode, "faults", "off", "fault-injection preset: off, light or heavy")
	flag.Int64Var(&o.faultSeed, "fault-seed", 0, "fault injector seed (0 derives it from -seed)")
	flag.IntVar(&o.faultDays, "fault-days", 0, "restrict telemetry faults to this many days after training (0 = the whole replay)")
	flag.BoolVar(&o.soak, "soak", false, "replay twice (clean, then faulted) and fail if leaf-peak totals drift beyond -soak-drift percent")
	flag.Float64Var(&o.soakDrift, "soak-drift", 2, "max allowed soak drift, in percent of the clean replay's leaf-peak totals")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "smoothopd:", err)
		os.Exit(1)
	}
}

// dumpMetrics writes the process-global registry as Prometheus text.
func dumpMetrics(w io.Writer) {
	fmt.Fprintln(w, "--- metrics ---")
	if err := obs.Default().WriteProm(w); err != nil {
		fmt.Fprintln(w, "metrics dump failed:", err)
	}
}

// buildInjector assembles the preset fault profile for a replay, including
// a breaker trip on the tree's first leaf in the first post-training week.
func buildInjector(o options, tree *powertree.Node, trainEnd time.Time) (*faults.Injector, error) {
	if o.faultsMode == "" || o.faultsMode == "off" {
		return nil, nil
	}
	seed := o.faultSeed
	if seed == 0 {
		seed = o.seed + 1000
	}
	var p faults.Profile
	if o.faultsMode == "light" {
		p = faults.Light(seed)
	} else {
		p = faults.Heavy(seed)
	}
	if o.faultDays > 0 {
		p = p.Activated(trainEnd, time.Duration(o.faultDays)*24*time.Hour)
	}
	// A backup feed at a quarter of nominal sits below typical leaf peaks,
	// so the trip actually forces breaker re-checks and emergency capping.
	p = p.WithTrips(faults.TripWindow{
		Node:           tree.Leaves()[0].Name,
		Start:          trainEnd.Add(24 * time.Hour),
		Duration:       48 * time.Hour,
		BudgetFraction: 0.25,
	})
	return faults.New(p, o.step, tree)
}

// replay drives one full week-by-week replay and returns the runtime with
// its tick history. faulted toggles the injector; label prefixes the
// progress lines so soak mode can interleave two replays readably.
func replay(o options, faulted bool, label string) (*core.Runtime, error) {
	cfg, err := workload.StandardDCConfig(workload.DCName(o.dc), o.scale)
	if err != nil {
		return nil, err
	}
	cfg.Gen.Step = o.step
	cfg.Gen.Weeks = o.weeks
	fleet, tree, err := workload.BuildDC(cfg)
	if err != nil {
		return nil, err
	}
	store := tracestore.New(tracestore.Config{
		Step:      o.step,
		Retention: time.Duration(o.weeks+1) * 7 * 24 * time.Hour,
		// The pipeline's only impulse filter: sensor spikes must not
		// become interpolation endpoints, and the runtime scores what the
		// store returns. Identity on clean telemetry, so both soak replays
		// are conditioned alike.
		RejectImpulses: true,
	})
	start := fleet.Instances[0].Trace.Start
	week := 7 * 24 * time.Hour
	trainEnd := start.Add(2 * week)
	var inj *faults.Injector
	if faulted {
		if inj, err = buildInjector(o, tree, trainEnd); err != nil {
			return nil, err
		}
	}
	rt, err := core.NewRuntime(
		core.New(core.Config{TopServices: 8, Seed: o.seed}),
		store, tree,
		core.RuntimeConfig{ScoreFloor: o.floor, MaxSwapsPerTick: o.swaps, Faults: inj},
	)
	if err != nil {
		return nil, err
	}

	// The traces are sampled at the store's step, so each instance's
	// readings in a window are one run.
	ingestWindow := func(from, to time.Time) error {
		for _, inst := range fleet.Instances {
			tr := inst.Trace
			lo, hi := tr.Within(from, to)
			if err := rt.IngestRun(inst.ID, tr.TimeAt(lo), tr.Values[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	}

	mode := "clean telemetry"
	if inj != nil {
		mode = o.faultsMode + " faults"
	}
	fmt.Fprintf(out, "%ssmoothopd — %s, %d instances, %d leaves, %d weeks at %s, %s\n\n",
		label, o.dc, len(fleet.Instances), len(tree.Leaves()), o.weeks, o.step, mode)

	// Weeks 1–2: collect history.
	if err := ingestWindow(start, trainEnd); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%sweeks 1–2: telemetry collected\n", label)

	instances := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%splacement bootstrapped from averaged I-traces (quarantined: %d)\n",
		label, len(rt.Quarantined()))

	// Remaining weeks: ingest + tick.
	for w := 2; w < o.weeks; w++ {
		from := start.Add(time.Duration(w) * week)
		to := from.Add(week)
		if err := ingestWindow(from, to); err != nil {
			return nil, err
		}
		if w == o.weeks-1 {
			// Last week: drain the injector's reorder buffer so the final
			// tick sees every delayed reading.
			if err := rt.FlushFaults(); err != nil {
				return nil, err
			}
		}
		rep, err := rt.Tick(to, week)
		if err != nil {
			return nil, err
		}
		degraded := ""
		if inj != nil {
			degraded = fmt.Sprintf("  quarantined %d  trips %d  emergency throttles %d",
				len(rep.Quarantined), len(rep.ActiveTrips), len(rep.EmergencyThrottles))
		}
		fmt.Fprintf(out, "%sweek %d tick: worst leaf %-22s score %.3f  Σ leaf peaks %9.0f  swaps %d%s\n",
			label, w+1, rep.WorstNode, rep.WorstScore, rep.SumOfPeaks, len(rep.Swaps), degraded)
	}
	return rt, nil
}

// runSoak replays the configured weeks twice — clean, then faulted — and
// compares leaf-peak totals tick by tick. Both replays are fully seeded, so
// two soak runs with the same flags produce bit-identical reports.
func runSoak(o options) error {
	clean, err := replay(o, false, "[clean]  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	faulted, err := replay(o, true, "[faults] ")
	if err != nil {
		return err
	}

	ch, fh := clean.History(), faulted.History()
	if len(ch) != len(fh) {
		return fmt.Errorf("soak: clean replay ticked %d times, faulted %d", len(ch), len(fh))
	}
	fmt.Fprintf(out, "\nsoak drift report (%s faults, bound %.2f%%)\n", o.faultsMode, o.soakDrift)
	maxDrift := 0.0
	for i := range ch {
		drift := 100 * math.Abs(fh[i].SumOfPeaks-ch[i].SumOfPeaks) / ch[i].SumOfPeaks
		if drift > maxDrift {
			maxDrift = drift
		}
		fmt.Fprintf(out, "week %d: Σ leaf peaks clean %9.0f  faulted %9.0f  drift %.3f%%\n",
			i+3, ch[i].SumOfPeaks, fh[i].SumOfPeaks, drift)
	}
	if maxDrift > o.soakDrift {
		return fmt.Errorf("%w: max drift %.3f%% > %.2f%%", errSoakDrift, maxDrift, o.soakDrift)
	}
	fmt.Fprintf(out, "soak passed: max drift %.3f%% within %.2f%%\n", maxDrift, o.soakDrift)
	return nil
}

func run(o options) error {
	if err := validate(o); err != nil {
		return err
	}
	if o.metricsEvery > 0 {
		ticker := time.NewTicker(o.metricsEvery)
		defer ticker.Stop()
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-ticker.C:
					dumpMetrics(os.Stderr)
				case <-done:
					return
				}
			}
		}()
	}
	if o.soak {
		return runSoak(o)
	}
	rt, err := replay(o, o.faultsMode != "" && o.faultsMode != "off", "")
	if err != nil {
		return err
	}

	if o.treeOut != "" {
		f, err := os.Create(o.treeOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rt.Tree().Save(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nfinal placed tree written to %s\n", o.treeOut)
		// Round-trip sanity: the checkpoint must load back valid.
		g, err := os.Open(o.treeOut)
		if err != nil {
			return err
		}
		defer g.Close()
		if _, err := powertree.LoadTree(g); err != nil {
			return fmt.Errorf("checkpoint failed to load back: %w", err)
		}
	}
	if o.metricsEvery > 0 {
		dumpMetrics(os.Stderr)
	}
	if o.listen != "" {
		planner, err := plan.NewService(rt.PlanSnapshot, plan.Config{
			MaxInFlight: o.planMaxInflight,
			Deadline:    o.planDeadline,
		})
		if err != nil {
			return err
		}
		handler := core.HTTPHandlerWithPlanner(rt, planner, time.Now, obs.Default())
		routes := "GET /v1/{health,status,tree,history,metrics,fragmentation}, POST /v1/{instances,plan}, DELETE /v1/instances/{id}"
		if o.pprof {
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			handler = mux
			routes += ", GET /debug/pprof/"
		}
		fmt.Fprintf(out, "\nserving status API on %s (%s)\n", o.listen, routes)
		return listenAndServe(o.listen, handler)
	}
	return nil
}
