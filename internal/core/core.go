// Package core is SmoothOperator itself: the end-to-end framework of §3
// (Fig. 7) and §4. It wires the substrates together:
//
//  1. collect instance power traces and build averaged I-traces (Eq. 3/4),
//  2. extract S-traces for the top power-consumer services (Eq. 5),
//  3. compute asynchrony-score vectors (Eq. 6/7),
//  4. cluster instances and place them across the power tree (§3.5),
//  5. evaluate peak reduction, headroom and slack on a held-out test week,
//  6. exploit unlocked headroom with dynamic power profile reshaping (§4),
//  7. keep monitoring and incrementally remapping as workload drifts (§3.6).
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/capping"
	"repro/internal/detmap"
	"repro/internal/faults"
	"repro/internal/forecast"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/reshape"
	"repro/internal/sim"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// Config tunes the framework.
type Config struct {
	// TopServices is |B|, the S-trace basis size. 0 means 10.
	TopServices int
	// ClustersPerChild is h/q for the placement clustering. 0 means 2.
	ClustersPerChild int
	// TrainWeeks is how many leading weeks form the training data. 0 means 2
	// (the paper trains on two weeks and tests on the third).
	TrainWeeks int
	// Seed fixes all randomized stages.
	Seed int64
	// Baseline is the placement being displaced; nil means the oblivious
	// service-grouped production baseline.
	Baseline placement.Placer
	// Latency, when non-zero, attaches a queueing latency model to reshape
	// evaluation: ReshapeResult gains per-strategy latency reports, and the
	// QoS knee is derived from the latency SLA when one is set.
	Latency sim.LatencyModel
	// PlaceOnForecast, when true, drives the workload-aware placement with
	// next-week forecast traces (seasonal EWMA + damped trend) instead of
	// the averaged I-traces — proactive planning for trending fleets. The
	// baseline placement and all evaluation stay on the standard data.
	PlaceOnForecast bool
	// Workers bounds the goroutines the pipeline's parallel stages use
	// (scoring, clustering restarts, strategy simulations); 0 means the
	// default (SMOOTHOP_WORKERS or GOMAXPROCS). Results are identical for
	// any worker count.
	Workers int
}

func (c Config) topServices() int {
	if c.TopServices <= 0 {
		return 10
	}
	return c.TopServices
}

func (c Config) trainWeeks() int {
	if c.TrainWeeks <= 0 {
		return 2
	}
	return c.TrainWeeks
}

// offPeakFraction classifies readings below this fraction of peak as
// off-peak for slack reporting.
const offPeakFraction = 0.85

// qosKnee is the per-server load where QoS degrades: 0.9, or, when a latency
// model is configured, the highest utilization whose p99 proxy still meets
// its SLA.
func (c Config) qosKnee() float64 {
	if c.Latency.ServiceTimeMs > 0 && c.Latency.SLAms > 0 {
		if rho := c.Latency.MaxUtilization(); rho > 0 {
			return rho
		}
	}
	return 0.9
}

func (c Config) baseline() placement.Placer {
	if c.Baseline != nil {
		return c.Baseline
	}
	return placement.Oblivious{}
}

// Framework is a configured SmoothOperator instance.
type Framework struct {
	cfg Config
}

// New returns a framework with the given configuration.
func New(cfg Config) *Framework { return &Framework{cfg: cfg} }

// placer is the §3.5 workload-aware placer: Optimize and Runtime.Bootstrap
// both place with it.
func (f *Framework) placer() placement.WorkloadAware {
	return placement.WorkloadAware{
		TopServices:      f.cfg.topServices(),
		ClustersPerChild: f.cfg.ClustersPerChild,
		Seed:             f.cfg.Seed,
		Workers:          f.cfg.Workers,
	}
}

// ErrFleetTooShort is returned when the fleet's traces don't cover training
// plus one test week.
var ErrFleetTooShort = errors.New("core: fleet traces shorter than train+test window")

// PlacementResult is the outcome of the placement pipeline on one fleet.
type PlacementResult struct {
	// BaselineTree and OptimizedTree host the same fleet under the baseline
	// and the workload-aware placement.
	BaselineTree, OptimizedTree *powertree.Node
	// TestTraces is the held-out test-week trace per instance; all reports
	// are computed against it.
	TestTraces map[string]timeseries.Series
	// BaselineAggs and OptimizedAggs aggregate BaselineTree and
	// OptimizedTree over TestTraces: every report on the two placements
	// reads these instead of aggregating the trees again.
	BaselineAggs, OptimizedAggs *powertree.Aggregates
	// AveragedITraces is the training embedding input (Eq. 4).
	AveragedITraces map[string]timeseries.Series
	// PeakReports is the per-level peak reduction (Fig. 10).
	PeakReports []metrics.LevelPeakReport
	// RPPReductionPct is the leaf-level peak reduction — the headline
	// number that converts into extra hostable servers.
	RPPReductionPct float64
	// BaselineLeafScores and OptimizedLeafScores are per-leaf asynchrony
	// scores under each placement.
	BaselineLeafScores, OptimizedLeafScores map[string]float64
}

// Optimize runs the placement pipeline: averaged I-traces from the training
// weeks drive the workload-aware placement; the baseline placement is built
// from the same data; both are evaluated on the held-out test week.
// The supplied tree must be empty; it is never modified (clones are).
func (f *Framework) Optimize(fleet *workload.Fleet, tree *powertree.Node) (*PlacementResult, error) {
	trainWeeks := f.cfg.trainWeeks()
	avg, err := fleet.AveragedITraces(trainWeeks)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFleetTooShort, err)
	}
	test, err := fleet.SplitWeeks(trainWeeks) // first week after training
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFleetTooShort, err)
	}

	instances := make([]placement.Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = placement.Instance{ID: inst.ID, Service: inst.Service}
	}
	trainFn := placement.TraceFn(workload.SubPowerFn(avg))

	baseTree := tree.Clone()
	if err := f.cfg.baseline().Place(baseTree, instances, trainFn); err != nil {
		return nil, fmt.Errorf("core: baseline placement: %w", err)
	}
	placeFn := trainFn
	if f.cfg.PlaceOnForecast {
		weekLen := len(anyTrace(avg).Values)
		fc := make(map[string]timeseries.Series, len(fleet.Instances))
		for _, inst := range fleet.Instances {
			pred, err := forecast.NextWeek(inst.Trace.Slice(0, trainWeeks*weekLen))
			if err != nil {
				return nil, fmt.Errorf("core: forecasting %q: %w", inst.ID, err)
			}
			fc[inst.ID] = pred
		}
		placeFn = placement.TraceFn(workload.SubPowerFn(fc))
	}
	optTree := tree.Clone()
	if err := f.placer().Place(optTree, instances, placeFn); err != nil {
		return nil, fmt.Errorf("core: workload-aware placement: %w", err)
	}

	testFn := workload.SubPowerFn(test)
	baseAggs, err := baseTree.AggregateAllParallel(testFn, f.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: aggregating baseline tree: %w", err)
	}
	optAggs, err := optTree.AggregateAllParallel(testFn, f.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: aggregating optimized tree: %w", err)
	}
	res := &PlacementResult{
		BaselineTree:    baseTree,
		OptimizedTree:   optTree,
		TestTraces:      test,
		BaselineAggs:    baseAggs,
		OptimizedAggs:   optAggs,
		AveragedITraces: avg,
		PeakReports:     metrics.PeakReduction(baseAggs, optAggs),
	}
	for _, r := range res.PeakReports {
		if r.Level == powertree.RPP {
			res.RPPReductionPct = r.ReductionPct
		}
	}
	res.BaselineLeafScores, err = placement.LevelAsynchronyFrom(baseAggs, powertree.RPP, testFn, f.cfg.Workers)
	if err != nil {
		return nil, err
	}
	res.OptimizedLeafScores, err = placement.LevelAsynchronyFrom(optAggs, powertree.RPP, testFn, f.cfg.Workers)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ReshapeResult is the outcome of dynamic power profile reshaping on top of
// an optimized placement (§4, Fig. 12–14).
type ReshapeResult struct {
	// Pools: original LC and Batch populations, the conversion pool sized
	// from unlocked headroom, and the throttle-enabled extra pool.
	NLC, NBatch, NConv, NThrottleConv int
	// Lconv is the conversion threshold used.
	Lconv float64
	// Baseline is the pre-SmoothOperator run (original fleet, original
	// traffic). Conversion and ThrottleBoost are two of the three §4
	// strategies serving grown traffic; StaticImp reports the third.
	Baseline, Conversion, ThrottleBoost *sim.Result
	// StaticImp, ConvImp and TBImp compare each strategy to Baseline
	// (Fig. 13's bars).
	StaticImp, ConvImp, TBImp sim.Improvement
	// SlackBudget is the peak-provisioned budget slack is measured against.
	SlackBudget float64
	// AvgSlackReductionPct and OffPeakSlackReductionPct compare
	// ThrottleBoost to Baseline (Fig. 14's bars).
	AvgSlackReductionPct, OffPeakSlackReductionPct float64
	// TBLatency is present when the framework was configured with a
	// latency model: ThrottleBoost's QoS story in milliseconds.
	TBLatency *sim.LatencyReport
}

// Reshape sizes a conversion-server fleet from the placement's unlocked
// headroom and simulates the three §4 strategies over the test week.
func (f *Framework) Reshape(fleet *workload.Fleet, pr *PlacementResult) (*ReshapeResult, error) {
	if pr == nil {
		return nil, errors.New("core: nil placement result")
	}
	profiles := fleet.Profiles
	// The batch-capable tier — servers whose work is throughput-oriented and
	// deferrable — covers the Batch class plus the dev/storage long tail
	// that harvesting runtimes (the paper's [53]) use for spare-cycle work.
	nLC, nBatch, nThrottleable := 0, 0, 0
	for _, inst := range fleet.Instances {
		switch inst.Class {
		case workload.LatencyCritical:
			nLC++
		case workload.Batch:
			nBatch++
			nThrottleable++
		case workload.Dev, workload.Storage:
			nBatch++
		}
	}
	if nLC == 0 {
		return nil, errors.New("core: fleet has no latency-critical instances")
	}

	// Headroom fraction unlocked at the leaves sizes the conversion pool:
	// "we are able to host up to 13% more machines".
	headFrac := pr.RPPReductionPct / 100
	if headFrac < 0 {
		headFrac = 0
	}
	// Round up: any positive unlocked headroom hosts at least one server
	// (small test fleets would otherwise round the pool to zero).
	nConv := int(math.Ceil(headFrac * float64(nLC)))

	// The LC service's load trace over training and test windows, in units
	// of one server's guarded capacity. The original fleet is assumed
	// provisioned to run at the guarded level at its observed peak.
	lcService := dominantLCService(fleet)
	prof := profiles[lcService]
	anyTest := anyTrace(pr.TestTraces)
	steps := anyTest.Len()
	trainLoad := workload.LoadTrace(prof, anyTest.Start.AddDate(0, 0, -7*f.cfg.trainWeeks()), anyTest.Step, steps*f.cfg.trainWeeks(), f.cfg.Seed+1)
	testLoad := workload.LoadTrace(prof, anyTest.Start, anyTest.Step, steps, f.cfg.Seed+2)

	qosKnee := f.cfg.qosKnee()
	// Per-server load in training: activity × guarded level (the fleet is
	// sized so that peak activity = guarded load).
	perServer := trainLoad.Scale(qosKnee * 0.95)
	lconv, err := reshape.LearnThreshold(perServer, qosKnee, 0.02)
	if err != nil {
		return nil, err
	}

	lcModel := sim.ServerModel{Idle: prof.IdlePower, Peak: prof.PeakPower}
	batchModel := sim.ServerModel{Idle: 140, Peak: 310}
	if bp, ok := profiles["hadoop"]; ok {
		batchModel = sim.ServerModel{Idle: bp.IdlePower, Peak: bp.PeakPower}
	}

	// The throttle-enabled extra pool (e_th) is sized by physics: throttling
	// the Batch-class servers to the floor frequency frees power that hosts
	// extra LC-mode servers during the peak. DC3's small throttleable share
	// is exactly why its extra LC gain is small (§5.2.2). The pool is capped
	// at 10% of the LC fleet: beyond that, throttling would have to run so
	// long the boost repayment never catches up.
	freq := sim.DefaultDVFS
	freedPerBatch := freq.Power(batchModel, 1) - freq.Power(batchModel, 0.7)
	nExtra := 0
	if nConv > 0 && nThrottleable > 0 {
		nExtra = int(math.Floor(float64(nThrottleable) * freedPerBatch / lcModel.Peak))
		if cap := nLC / 10; nExtra > cap {
			nExtra = cap
		}
	}

	mkCfg := func(nConvRun, nExtraRun int, peakServers int, policy sim.Policy) sim.Config {
		load := testLoad.Scale(float64(peakServers) * lconv)
		return sim.Config{
			LCLoad: load,
			NLC:    nLC, NBatch: nBatch,
			NConv: nConvRun, NThrottleConv: nExtraRun,
			LCServer: lcModel, BatchServer: batchModel,
			Freq:   sim.DefaultDVFS,
			Budget: budgetFor(nLC+nConv+nExtra, nBatch, lcModel, batchModel),
			Lconv:  lconv, QoSKnee: qosKnee,
			// Batch queues hold ~10% more work than the fleet's nominal
			// rate; helpers beyond that idle. Small Batch tiers (DC3) are
			// therefore the binding constraint on reshaping gains (§5.2.2).
			BatchWorkCap: 1.1,
			// Parked conversion servers deep-sleep at ~30% of idle; their
			// state lives on disaggregated storage so compute can power down.
			ConvIdlePower: 0.3 * batchModel.Idle,
			Policy:        policy,
		}
	}

	// The four strategy simulations are independent; run them side by side.
	results, err := sim.RunMany([]sim.Config{
		mkCfg(0, 0, nLC, reshape.StaticLC{}),
		mkCfg(nConv, 0, nLC+nConv, reshape.StaticLC{Conv: nConv}),
		mkCfg(nConv, 0, nLC+nConv, reshape.Conversion{NLC: nLC, Pool: nConv, Lconv: lconv}),
		mkCfg(nConv, nExtra, nLC+nConv+nExtra, &reshape.ThrottleBoost{NLC: nLC, NBatch: nThrottleable, Pool: nConv, ExtraPool: nExtra, Lconv: lconv}),
	}, f.cfg.Workers)
	if err != nil {
		return nil, err
	}
	baseline, static, conv, tb := results[0], results[1], results[2], results[3]

	res := &ReshapeResult{
		NLC: nLC, NBatch: nBatch, NConv: nConv, NThrottleConv: nExtra,
		Lconv:    lconv,
		Baseline: baseline, Conversion: conv, ThrottleBoost: tb,
		StaticImp: sim.Compare(baseline, static),
		ConvImp:   sim.Compare(baseline, conv),
		TBImp:     sim.Compare(baseline, tb),
	}

	// Slack is measured against a peak-provisioned budget (Challenge 1:
	// budgets are sized for the pre-optimization peak).
	res.SlackBudget = baseline.Power.Peak() * 1.02
	baseAvg, err := metrics.AverageSlack(baseline.Power, res.SlackBudget)
	if err != nil {
		return nil, err
	}
	tbAvg, err := metrics.AverageSlack(tb.Power, res.SlackBudget)
	if err != nil {
		return nil, err
	}
	res.AvgSlackReductionPct = 100 * metrics.Reduction(baseAvg, tbAvg)
	baseOff, errB := metrics.OffPeakSlack(baseline.Power, res.SlackBudget, offPeakFraction)
	tbOff, errT := metrics.OffPeakSlack(tb.Power, res.SlackBudget, offPeakFraction)
	if errB == nil && errT == nil {
		res.OffPeakSlackReductionPct = 100 * metrics.Reduction(baseOff, tbOff)
	}
	if f.cfg.Latency.ServiceTimeMs > 0 {
		tbLat, err := sim.Latency(tb, f.cfg.Latency)
		if err != nil {
			return nil, err
		}
		res.TBLatency = &tbLat
	}
	return res, nil
}

// budgetFor provisions for the grown fleet at peak — the capping backstop
// still guards pathological policies, but well-behaved runs fit.
func budgetFor(nLC, nBatch int, lc, batch sim.ServerModel) float64 {
	return float64(nLC)*lc.Peak + float64(nBatch)*batch.Peak*1.1
}

// dominantLCService returns the largest latency-critical power consumer.
func dominantLCService(fleet *workload.Fleet) string {
	for _, sp := range fleet.PowerBreakdown() {
		if sp.Class == workload.LatencyCritical {
			return sp.Service
		}
	}
	// No LC service: fall back to the top consumer.
	return fleet.PowerBreakdown()[0].Service
}

func anyTrace(m map[string]timeseries.Series) timeseries.Series {
	// Every caller only needs shape (step, length), but pick the smallest
	// key anyway so the choice is reproducible.
	_, s, _ := detmap.First(m)
	return s
}

// DriftReport is what the continuous monitor (§3.6) observes.
type DriftReport struct {
	// WorstNode is the leaf with the lowest asynchrony score; empty when no
	// leaf hosts two instances, so none can be scored.
	WorstNode string
	// WorstScore is its score, +Inf when WorstNode is empty. The HTTP wire
	// form omits it then (JSON has no infinity).
	WorstScore float64
	// SumOfPeaks is the current leaf-level sum of peaks.
	SumOfPeaks float64
	// Swaps applied by remapping (empty if none were needed).
	Swaps []placement.Swap

	// Degradation context, filled by Runtime.Tick (zero for plain Adapt):
	// Quarantined lists the instances scored from service reference traces
	// because their own telemetry fell below the coverage floor.
	Quarantined []string
	// ActiveTrips are the injected breaker-trip windows overlapping the
	// tick's telemetry window.
	ActiveTrips []faults.TripWindow
	// BreakerTrips are the violations found when breakers were re-checked
	// at trip-reduced budgets.
	BreakerTrips []powertree.BreakerTrip
	// EmergencyThrottles are the shedding directives the emergency capping
	// path issued this tick.
	EmergencyThrottles []capping.Throttle
}

// Adapt monitors a placed tree against fresh traces and applies incremental
// swap remapping when fragmentation re-appears (§3.6). scoreFloor is the
// asynchrony score below which a node is considered fragmented (1.0 disables
// remapping only for perfectly synchronous nodes; the paper leaves the
// trigger operational — 1.2–1.5 works well in practice).
// Every resident of tree needs a trace in fresh.
func (f *Framework) Adapt(tree *powertree.Node, fresh map[string]timeseries.Series, scoreFloor float64, maxSwaps int) (*DriftReport, error) {
	o, err := placement.NewOnline(tree, workload.SubPowerFn(fresh), placement.PolicyConfig{})
	if err != nil {
		return nil, err
	}
	return adapt(o, scoreFloor, maxSwaps, f.cfg.Workers)
}

// adapt is the drift monitor behind Adapt and Runtime.Tick, run through the
// placer o: Σ leaf peaks is read from o's ledger before any swap, and
// placement.Online.Remap scores the leaves from the same ledger on workers
// goroutines, as the tick's read is, and remaps when the worst is below
// scoreFloor. The remap moves instances through o, whose recorded demands
// veto swaps that would overflow a capacity dimension.
func adapt(o *placement.Online, scoreFloor float64, maxSwaps, workers int) (*DriftReport, error) {
	rep := &DriftReport{SumOfPeaks: o.Aggregates().SumOfPeaks(powertree.RPP)}
	var err error
	if rep.WorstNode, rep.WorstScore, rep.Swaps, err = o.Remap(scoreFloor, workers, maxSwaps); err != nil {
		return nil, err
	}
	return rep, nil
}
