// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic datacenters. Each FigN function
// returns the data behind the corresponding figure; Format helpers render
// the same rows/series the paper reports as text tables. The cmd/experiments
// binary and the repository-level benchmarks are thin wrappers around this
// package.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// Options size the experiments. The defaults favour a single-core machine;
// raise Scale (and lower Step) for higher-fidelity runs.
type Options struct {
	// Scale multiplies per-service instance counts (default 2).
	Scale int
	// Step is the trace sampling interval (default 30 minutes).
	Step time.Duration
	// Seed fixes all randomized stages (default 1).
	Seed int64
	// TopServices is |B| (default 8).
	TopServices int
	// Workers bounds the goroutines used by the per-DC, per-ablation and
	// per-sweep-point fan-outs and by the pipeline stages underneath; 0
	// means the default (SMOOTHOP_WORKERS or GOMAXPROCS). Every experiment
	// returns identical data for any worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 2
	}
	if o.Step <= 0 {
		o.Step = 30 * time.Minute
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TopServices <= 0 {
		o.TopServices = 8
	}
	return o
}

// DCRun bundles everything computed for one datacenter: the fleet, the
// framework outputs, and the config that produced them.
type DCRun struct {
	Name      workload.DCName
	Config    workload.DCConfig
	Fleet     *workload.Fleet
	Tree      *powertree.Node
	Placement *core.PlacementResult
	Reshape   *core.ReshapeResult
}

// Setup instantiates one datacenter without running the pipeline.
func Setup(name workload.DCName, opt Options) (*DCRun, error) {
	return setup(name, opt, nil)
}

// setup instantiates one datacenter, with mutate (when non-nil) applied to
// its standard config before the fleet is built.
func setup(name workload.DCName, opt Options, mutate func(*workload.DCConfig)) (*DCRun, error) {
	opt = opt.withDefaults()
	cfg, err := workload.StandardDCConfig(name, opt.Scale)
	if err != nil {
		return nil, err
	}
	cfg.Gen.Step = opt.Step
	if mutate != nil {
		mutate(&cfg)
	}
	fleet, tree, err := workload.BuildDC(cfg)
	if err != nil {
		return nil, err
	}
	return &DCRun{Name: name, Config: cfg, Fleet: fleet, Tree: tree}, nil
}

// config is the framework configuration every study of the run's
// datacenter starts from: the paper's placer against the DC's own
// oblivious baseline.
func config(run *DCRun, opt Options) core.Config {
	opt = opt.withDefaults()
	return core.Config{
		TopServices: opt.TopServices,
		Seed:        opt.Seed,
		Baseline:    placement.Oblivious{MixFraction: run.Config.BaselineMix},
		Workers:     opt.Workers,
	}
}

// optimize runs the paper's evaluation protocol (§5.1) on the run's fleet
// and tree under config(run, opt), with tweak (when non-nil) applied.
func optimize(run *DCRun, opt Options, tweak func(*core.Config)) (*core.PlacementResult, error) {
	cfg := config(run, opt)
	if tweak != nil {
		tweak(&cfg)
	}
	res, err := core.New(cfg).Optimize(run.Fleet, run.Tree)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s placement: %w", run.Name, err)
	}
	return res, nil
}

// Run executes the full pipeline (placement + reshaping) for one DC.
func Run(name workload.DCName, opt Options) (*DCRun, error) {
	run, err := Setup(name, opt)
	if err != nil {
		return nil, err
	}
	if run.Placement, err = optimize(run, opt, nil); err != nil {
		return nil, err
	}
	run.Reshape, err = core.New(config(run, opt)).Reshape(run.Fleet, run.Placement)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s reshape: %w", name, err)
	}
	return run, nil
}

// RunSome executes the pipeline for the named datacenters, side by side.
// A failure in any datacenter aborts the whole batch with an error naming
// the datacenter and pipeline stage (never a silent partial result).
func RunSome(names []workload.DCName, opt Options) ([]*DCRun, error) {
	return parallel.Map(context.Background(), len(names), opt.Workers, func(i int) (*DCRun, error) {
		return Run(names[i], opt)
	})
}

// ---------------------------------------------------------------- Fig. 5

// Fig5Row is one slice of one datacenter's service-power pie.
type Fig5Row struct {
	DC       workload.DCName
	Service  string
	Class    workload.Class
	SharePct float64
}

// Fig5 reports the breakdown of average power by service per datacenter.
func Fig5(opt Options) ([]Fig5Row, error) {
	perDC, err := parallel.Map(context.Background(), len(workload.AllDCs), opt.Workers, func(i int) ([]Fig5Row, error) {
		name := workload.AllDCs[i]
		run, err := Setup(name, opt)
		if err != nil {
			return nil, err
		}
		var rows []Fig5Row
		for _, sp := range run.Fleet.PowerBreakdown() {
			rows = append(rows, Fig5Row{DC: name, Service: sp.Service, Class: sp.Class, SharePct: 100 * sp.Share})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig5Row
	for _, r := range perDC {
		rows = append(rows, r...)
	}
	return rows, nil
}

// FormatFig5 renders the breakdown as the per-DC pie tables.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("Fig. 5 — 30-day average power breakdown by service\n")
	cur := workload.DCName("")
	for _, r := range rows {
		if r.DC != cur {
			cur = r.DC
			fmt.Fprintf(&b, "\n%s:\n", cur)
		}
		fmt.Fprintf(&b, "  %-14s %-8s %5.1f%%\n", r.Service, r.Class, r.SharePct)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 6

// Fig6Series is the diurnal percentile-band data of one service.
type Fig6Series struct {
	Service string
	// Bands are the cross-sectional percentile bands over the service's
	// instance population, normalized to the max single-server reading.
	Bands []timeseries.Band
	// Step and Points describe the folded one-week series.
	Step   time.Duration
	Points int
}

// Fig6 computes p5–p95 (and inner) bands for web-like, db and hadoop
// services over one folded week in DC1.
func Fig6(opt Options) ([]Fig6Series, error) {
	run, err := Setup(workload.DC1, opt)
	if err != nil {
		return nil, err
	}
	avg, err := run.Fleet.AveragedITraces(2)
	if err != nil {
		return nil, err
	}
	// Global normalization: max single-server reading in the DC.
	var maxReading float64
	for _, s := range avg {
		if p := s.Peak(); p > maxReading {
			maxReading = p
		}
	}
	pairs := [][2]float64{{5, 95}, {15, 85}, {25, 75}, {35, 65}, {45, 55}}
	var out []Fig6Series
	for _, svc := range []string{"frontend", "dbA", "hadoop"} {
		insts := run.Fleet.ServiceInstances(svc)
		if len(insts) == 0 {
			return nil, fmt.Errorf("experiments: DC1 lacks service %q", svc)
		}
		pop := make([]timeseries.Series, len(insts))
		for i, inst := range insts {
			pop[i] = avg[inst.ID].Scale(1 / maxReading)
		}
		bands, err := timeseries.CrossSectionBands(pop, pairs)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Series{Service: svc, Bands: bands, Step: pop[0].Step, Points: pop[0].Len()})
	}
	return out, nil
}

// FormatFig6 summarises the bands at a few representative hours.
func FormatFig6(series []Fig6Series) string {
	var b strings.Builder
	b.WriteString("Fig. 6 — diurnal percentile bands (normalized power, Monday samples)\n")
	for _, s := range series {
		fmt.Fprintf(&b, "\n%s (p5–p95 band):\n", s.Service)
		stepsPerHour := int(time.Hour / s.Step)
		for _, hour := range []int{0, 4, 8, 12, 16, 20} {
			i := hour * stepsPerHour
			if i >= s.Points {
				continue
			}
			outer := s.Bands[0]
			fmt.Fprintf(&b, "  %02d:00  %.3f – %.3f\n", hour, outer.Lo[i], outer.Hi[i])
		}
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 8

// Fig8Point is one instance in the t-SNE projection of asynchrony-score
// space, tagged with its k-means cluster.
type Fig8Point struct {
	ID      string
	Service string
	Cluster int
	X, Y    float64
}

// Fig8 embeds one suite's worth of DC1 instances into asynchrony-score
// space, clusters them, and projects to 2-D with t-SNE.
func Fig8(opt Options, k int) ([]Fig8Point, error) {
	opt = opt.withDefaults()
	if k <= 0 {
		k = 6
	}
	run, err := Setup(workload.DC1, opt)
	if err != nil {
		return nil, err
	}
	avg, err := run.Fleet.AveragedITraces(2)
	if err != nil {
		return nil, err
	}
	// One suite's share of the fleet: every fourth instance, which samples
	// all services (a physical suite hosts a cross-section of the fleet).
	var insts []*workload.Instance
	for i := 0; i < len(run.Fleet.Instances); i += 4 {
		insts = append(insts, run.Fleet.Instances[i])
	}
	if len(insts) < k {
		insts = run.Fleet.Instances
	}

	// Basis: top services' S-traces.
	byService := make(map[string][]timeseries.Series)
	for _, inst := range insts {
		byService[inst.Service] = append(byService[inst.Service], avg[inst.ID])
	}
	top := run.Fleet.TopServices(opt.TopServices)
	var names []string
	for _, svc := range top {
		if len(byService[svc]) > 0 {
			names = append(names, svc)
		}
	}
	basis, err := score.ServiceTraces(names, byService)
	if err != nil {
		return nil, err
	}
	series := make([]timeseries.Series, len(insts))
	for i, inst := range insts {
		series[i] = avg[inst.ID]
	}
	points, err := score.VectorsParallel(series, basis, opt.Workers)
	if err != nil {
		return nil, err
	}
	res, err := cluster.KMeans(points, cluster.Config{K: k, Seed: opt.Seed, Restarts: 2, Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	emb, err := cluster.TSNE(points, cluster.TSNEConfig{Perplexity: 20, Iterations: 300, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Point, len(insts))
	for i, inst := range insts {
		out[i] = Fig8Point{ID: inst.ID, Service: inst.Service, Cluster: res.Assign[i], X: emb[i][0], Y: emb[i][1]}
	}
	return out, nil
}

// FormatFig8 summarises cluster composition (the textual equivalent of the
// colored scatter).
func FormatFig8(points []Fig8Point) string {
	comp := make(map[int]map[string]int)
	for _, p := range points {
		if comp[p.Cluster] == nil {
			comp[p.Cluster] = make(map[string]int)
		}
		comp[p.Cluster][p.Service]++
	}
	clusters := make([]int, 0, len(comp))
	for c := range comp {
		clusters = append(clusters, c)
	}
	sort.Ints(clusters)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — k-means clusters in asynchrony-score space (%d instances, t-SNE projected)\n", len(points))
	for _, c := range clusters {
		fmt.Fprintf(&b, "  cluster %d:", c)
		svcs := make([]string, 0, len(comp[c]))
		for svc := range comp[c] {
			svcs = append(svcs, svc)
		}
		sort.Strings(svcs)
		for _, svc := range svcs {
			fmt.Fprintf(&b, " %s×%d", svc, comp[c][svc])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
