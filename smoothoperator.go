// Package repro is SmoothOperator: a reproduction of "SmoothOperator:
// Reducing Power Fragmentation and Improving Power Utilization in
// Large-scale Datacenters" (Hsu, Deng, Mars, Tang — ASPLOS 2018).
//
// SmoothOperator attacks the power budget fragmentation that arises when
// service instances with synchronous power patterns are packed under the
// same nodes of a multi-level power delivery tree. It scores the temporal
// asynchrony of per-instance power traces against service-level reference
// traces, clusters instances in that score space, and deals every cluster
// evenly across the power tree — smoothing every node's aggregate draw and
// unlocking headroom for more servers. A dynamic power-profile-reshaping
// runtime then exploits the headroom with storage-disaggregated conversion
// servers and proactive throttling/boosting of batch workloads.
//
// This root package is the stable public facade. A typical session:
//
//	cfg, _ := repro.StandardDatacenter(repro.DC3, 2)
//	fleet, tree, _ := repro.BuildDatacenter(cfg)
//	fw := repro.New(repro.Config{Seed: 1, Baseline: repro.ObliviousBaseline(cfg.BaselineMix)})
//	pr, _ := fw.Optimize(fleet, tree)     // workload-aware placement
//	rr, _ := fw.Reshape(fleet, pr)        // conversion + throttle/boost
//	fmt.Printf("RPP peak reduction: %.1f%%\n", pr.RPPReductionPct)
//	fmt.Printf("LC +%.1f%%, Batch +%.1f%%\n", rr.TBImp.LCPct, rr.TBImp.BatchPct)
//
// The internal packages hold the substrates: timeseries (trace vectors),
// powertree (the delivery tree), workload (synthetic production fleets),
// score (asynchrony scores), cluster (k-means/t-SNE), placement (the
// placer and baselines), statprof (the EuroSys'09 provisioning baseline),
// sim and reshape (the §4 runtime), metrics (slack and peak reports), and
// experiments (regeneration of every figure and table in the paper).
package repro

import (
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Re-exported framework types. See the internal packages for full method
// documentation.
type (
	// Config tunes the SmoothOperator framework.
	Config = core.Config
	// Framework is a configured SmoothOperator instance.
	Framework = core.Framework
	// PlacementResult reports placement optimization (Fig. 9/10 data).
	PlacementResult = core.PlacementResult
	// ReshapeResult reports dynamic power profile reshaping (Fig. 12–14 data).
	ReshapeResult = core.ReshapeResult
	// DriftReport is what the continuous monitor observes.
	DriftReport = core.DriftReport

	// DCName names one of the three synthetic datacenters.
	DCName = workload.DCName
	// DCConfig describes a synthetic datacenter.
	DCConfig = workload.DCConfig
	// Fleet is a generated instance population with power traces.
	Fleet = workload.Fleet
	// Profile describes one service's power behaviour.
	Profile = workload.Profile

	// PowerNode is one node of the power delivery tree.
	PowerNode = powertree.Node
	// TopologySpec describes a regular power tree.
	TopologySpec = powertree.TopologySpec
	// Level is a power-tree tier (DC, SUITE, MSB, SB, RPP).
	Level = powertree.Level

	// Series is a fixed-interval power trace.
	Series = timeseries.Series

	// Placer decides which leaf hosts each instance.
	Placer = placement.Placer
	// Instance identifies a service instance to be placed; Demands
	// optionally carries its multi-resource demand vector.
	Instance = placement.Instance

	// ResourceVector maps capacity dimension names (e.g. "gpu", "net") to
	// non-negative amounts; power stays the canonical dimension and is never
	// a ResourceVector key.
	ResourceVector = powertree.ResourceVector
	// PolicyConfig selects and tunes an online placement policy: kind, seed,
	// FARB weights, optional custom policy and demand resolver. The zero
	// value is the paper's bit-exact power-only asynchrony placer.
	PolicyConfig = placement.PolicyConfig
	// PolicyKind names a built-in online policy.
	PolicyKind = placement.PolicyKind
	// Policy picks which feasible leaf hosts an arriving instance.
	Policy = placement.Policy
	// DemandFn resolves an instance ID to its resource demand vector.
	DemandFn = placement.DemandFn
	// TraceFn resolves an instance ID to its power trace.
	TraceFn = placement.TraceFn
	// FARBWeights tune the multi-resource composite objective.
	FARBWeights = score.FARBWeights
	// OnlinePlacer admits and retires instances one at a time.
	OnlinePlacer = placement.OnlinePlacer
	// AdmitRequest is a Runtime admission: instance identity plus an
	// optional demand vector.
	AdmitRequest = core.AdmitRequest

	// Runtime operates SmoothOperator as a continuously-running service:
	// telemetry ingestion, bootstrap placement, periodic drift repair.
	Runtime = core.Runtime
	// RuntimeConfig tunes the runtime's drift monitor (score floor, swaps
	// per tick), its fault injection and its placement policy; the
	// quarantine floor (coverage 0.5) and the ingest retry bound (three
	// retries of a transient store failure) are fixed.
	RuntimeConfig = core.RuntimeConfig
	// TraceStore collects streaming per-instance power readings.
	TraceStore = tracestore.Store
	// TraceStoreConfig tunes a TraceStore.
	TraceStoreConfig = tracestore.Config

	// TraceQuality grades how much of a materialised trace is real
	// telemetry versus gap repair.
	TraceQuality = tracestore.Quality
	// QualityGrade classifies a trace: good, degraded, poor or no-data.
	QualityGrade = tracestore.Grade

	// FaultProfile configures deterministic fault injection: sensor
	// dropout, stuck/spiky readings, clock skew, reordering, transient
	// store errors, leaf outages and breaker-trip windows.
	FaultProfile = faults.Profile
	// FaultInjector perturbs the telemetry stream per a FaultProfile.
	FaultInjector = faults.Injector
	// TripWindow schedules an injected breaker trip on one power node.
	TripWindow = faults.TripWindow
)

// The three datacenters under study.
const (
	DC1 = workload.DC1
	DC2 = workload.DC2
	DC3 = workload.DC3
)

// Power-tree levels, root to leaf.
const (
	LevelDC    = powertree.DC
	LevelSuite = powertree.Suite
	LevelMSB   = powertree.MSB
	LevelSB    = powertree.SB
	LevelRPP   = powertree.RPP
)

// Trace quality grades, best first.
const (
	GradeGood     = tracestore.GradeGood
	GradeDegraded = tracestore.GradeDegraded
	GradePoor     = tracestore.GradePoor
	GradeNoData   = tracestore.GradeNoData
)

// Built-in online placement policies, selected via PolicyConfig.Kind.
const (
	PolicyAsynchrony = placement.PolicyAsynchrony
	PolicyBestFit    = placement.PolicyBestFit
	PolicyRandom     = placement.PolicyRandom
	PolicyFARB       = placement.PolicyFARB
)

// Named errors re-exported for errors.Is checks against facade calls.
var (
	// ErrBadScoreFloor rejects a negative RuntimeConfig.ScoreFloor.
	ErrBadScoreFloor = core.ErrBadScoreFloor
	// ErrBadMaxSwaps rejects a negative RuntimeConfig.MaxSwapsPerTick.
	ErrBadMaxSwaps = core.ErrBadMaxSwaps
	// ErrAllQuarantined means no instance had a healthy trace to reference.
	ErrAllQuarantined = core.ErrAllQuarantined
	// ErrTransient marks a retryable trace-store failure.
	ErrTransient = tracestore.ErrTransient
	// ErrNotPlaced and ErrAlreadyPlaced guard Runtime bootstrap ordering.
	ErrNotPlaced     = core.ErrNotPlaced
	ErrAlreadyPlaced = core.ErrAlreadyPlaced
	// ErrNoCapacity means no leaf can admit the instance without a breaker
	// violation or capacity overflow.
	ErrNoCapacity = placement.ErrNoCapacity
	// ErrBadDimension rejects malformed resource vectors (empty dimension
	// names, negative or non-finite amounts).
	ErrBadDimension = powertree.ErrBadDimension
	// ErrReservedPower rejects resource vectors that name the canonical
	// power dimension.
	ErrReservedPower = powertree.ErrReservedPower
	// ErrUnknownPolicyKind rejects a PolicyConfig naming no built-in policy.
	ErrUnknownPolicyKind = placement.ErrUnknownPolicyKind
)

// New returns a SmoothOperator framework with the given configuration.
func New(cfg Config) *Framework { return core.New(cfg) }

// StandardDatacenter returns the synthetic stand-in for one of the paper's
// three datacenters at the given fleet scale (1 = small/fast, 4–8 =
// experiment-sized).
func StandardDatacenter(name DCName, scale int) (DCConfig, error) {
	return workload.StandardDCConfig(name, scale)
}

// BuildDatacenter instantiates a datacenter config: the generated fleet and
// an empty power tree ready for placement.
func BuildDatacenter(cfg DCConfig) (*Fleet, *PowerNode, error) {
	return workload.BuildDC(cfg)
}

// BuildTree constructs a power delivery tree from a topology spec.
func BuildTree(spec TopologySpec) (*PowerNode, error) {
	return powertree.Build(spec)
}

// NewOnlinePlacer wraps a live (possibly populated) power tree for
// one-at-a-time admission and retirement under the policy cfg describes.
// The zero PolicyConfig reproduces the power-only asynchrony placer
// decision-for-decision; set cfg.Demands (or per-Instance Demands) to
// enforce the tree's capacity dimensions.
func NewOnlinePlacer(tree *PowerNode, traces TraceFn, cfg PolicyConfig) (OnlinePlacer, error) {
	return placement.NewOnline(tree, traces, cfg)
}

// DefaultFARBWeights returns the published default weighting of the
// multi-resource composite objective.
func DefaultFARBWeights() FARBWeights { return score.DefaultFARBWeights() }

// ObliviousBaseline returns the production-baseline placer with the given
// mix fraction (0 packs services together; 1 deals everything out).
func ObliviousBaseline(mixFraction float64) Placer {
	return placement.Oblivious{MixFraction: mixFraction}
}

// WorkloadAwarePlacer returns SmoothOperator's placer with |B| basis
// services and a deterministic seed, for callers that want placement
// without the full framework.
func WorkloadAwarePlacer(topServices int, seed int64) Placer {
	return placement.WorkloadAware{TopServices: topServices, Seed: seed}
}

// StandardProfiles returns the built-in service profile library.
func StandardProfiles() map[string]Profile { return workload.StandardProfiles() }

// NewTraceStore returns an empty telemetry store.
func NewTraceStore(cfg TraceStoreConfig) *TraceStore { return tracestore.New(cfg) }

// NewRuntime assembles the continuously-running service around a framework,
// a telemetry store and an empty power tree.
func NewRuntime(fw *Framework, store *TraceStore, tree *PowerNode, cfg RuntimeConfig) (*Runtime, error) {
	return core.NewRuntime(fw, store, tree, cfg)
}

// NewFaultInjector builds a deterministic fault injector for the given
// profile, telemetry step and power tree. Wire it into a Runtime via
// RuntimeConfig.Faults.
func NewFaultInjector(p FaultProfile, step time.Duration, tree *PowerNode) (*FaultInjector, error) {
	return faults.New(p, step, tree)
}

// LightFaults is a mild preset: a few percent dropout, rare stuck or spiky
// sensors, some clock skew and reordering.
func LightFaults(seed int64) FaultProfile { return faults.Light(seed) }

// HeavyFaults is a hostile preset: heavy bursty dropout, frequent sensor
// pathologies and whole-leaf outages.
func HeavyFaults(seed int64) FaultProfile { return faults.Heavy(seed) }
