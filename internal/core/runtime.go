package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/capping"
	"repro/internal/detmap"
	"repro/internal/faults"
	"repro/internal/placement"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// Runtime is SmoothOperator operated as a continuously-running service
// (Fig. 7 plus §3.6): power telemetry streams into a trace store, an initial
// workload-aware placement is bootstrapped from collected history, and a
// periodic tick re-evaluates fragmentation on fresh data, remapping
// incrementally when drift appears.
//
// The runtime degrades gracefully instead of failing when telemetry turns
// bad: traces are graded (tracestore.Quality), instances graded poor or
// no-data are scored from a service-level reference trace instead of their
// own repaired trace, transient store errors are retried up to
// ingestRetries times, and breaker violations during injected trip windows
// escalate into an emergency capping throttle that releases when the trip
// clears.
type Runtime struct {
	fw    *Framework
	store *tracestore.Store
	tree  *powertree.Node

	// scoreFloor triggers remapping when any leaf's asynchrony score falls
	// below it; maxSwaps bounds each repair.
	scoreFloor float64
	maxSwaps   int

	// faults, when set, perturbs every reading on its way into the store.
	faults *faults.Injector
	// placeCfg carries the configured placement policy options; the runtime
	// overlays its own demand ledger on the config's resolver when building
	// admission views (see placementCfg). Never modified after construction.
	placeCfg placement.PolicyConfig
	// capper is the emergency throttle runtime; created at Bootstrap when
	// fault injection is configured.
	capper *capping.Controller

	// mu guards every field that changes after construction: the HTTP layer
	// calls the admission entry points and the read accessors from request
	// goroutines while Bootstrap/Tick mutate the same state. The guarded
	// fields are annotated below and the contract is machine-checked by the
	// guardedby analyzer (see internal/analysis).
	mu sync.Mutex

	// services maps instance → service, learned at Bootstrap; it names the
	// reference-trace pool a quarantined instance falls back to.
	services map[string]string //smoothop:guardedby mu
	// demands is the runtime's resource-demand ledger: the validated demand
	// vector of every placed instance that declared one (at Bootstrap or
	// admission). It outlives any one view, so rebuilt views re-learn demands
	// through placementCfg's resolver. The map is allocated once and mutated
	// in place — placementCfg's closure captures it.
	demands map[string]powertree.ResourceVector //smoothop:guardedby mu
	// quality and quarantined reflect the most recent Bootstrap or Tick.
	quality     map[string]tracestore.Quality //smoothop:guardedby mu
	quarantined []string                      //smoothop:guardedby mu
	// emergency tracks nodes currently under an emergency cap; lastTrips is
	// the injected trip windows seen by the latest tick.
	emergency map[string]bool     //smoothop:guardedby mu
	lastTrips []faults.TripWindow //smoothop:guardedby mu

	placed  bool           //smoothop:guardedby mu
	history []*DriftReport //smoothop:guardedby mu
	// evalAsOf is the runtime's own clock: the asOf of the latest Bootstrap
	// or Tick. Admissions that do not name a time use it, so callers follow
	// the replayed telemetry rather than the wall clock.
	evalAsOf time.Time //smoothop:guardedby mu

	// view is the runtime's only derived state (see view.go): replaced by
	// setView, dirtied by viewChanged, nil until Bootstrap.
	view *view //smoothop:guardedby mu
}

// RuntimeConfig tunes the runtime. It is a value handed over once at
// NewRuntime and never modified afterwards.
//
// smoothop:immutable
type RuntimeConfig struct {
	// ScoreFloor is the leaf asynchrony score below which the monitor
	// remaps. 0 means 1.2; negative is rejected with ErrBadScoreFloor.
	ScoreFloor float64
	// MaxSwapsPerTick bounds each incremental repair. 0 means 32; negative
	// is rejected with ErrBadMaxSwaps.
	MaxSwapsPerTick int
	// Faults, when non-nil, injects telemetry and infrastructure faults
	// into the runtime: readings pass through the injector on Ingest, and
	// its trip windows drive the emergency capping path at Tick.
	Faults *faults.Injector
	// Placement carries the redesigned placement policy options (kind, seed,
	// FARB weights, demand resolver) used for admission views and tick-time
	// remapping. The zero value is the paper's asynchrony policy with no
	// demand model — bit-identical to the power-only runtime. Demands
	// supplied at admission time take precedence over the configured
	// resolver. Unknown kinds and invalid weights are rejected at NewRuntime
	// with placement.ErrUnknownPolicyKind / score.ErrBadWeights.
	Placement placement.PolicyConfig
}

// Errors returned by the runtime.
var (
	ErrNotPlaced      = errors.New("core: runtime has no placement yet (call Bootstrap)")
	ErrAlreadyPlaced  = errors.New("core: runtime already bootstrapped")
	ErrBadScoreFloor  = errors.New("core: ScoreFloor must not be negative")
	ErrBadMaxSwaps    = errors.New("core: MaxSwapsPerTick must not be negative")
	ErrAllQuarantined = errors.New("core: every instance quarantined — no healthy trace to reference")
	ErrTrainWeeks     = errors.New("core: training window exceeds the store's retention")
)

const (
	// ingestRetries is how many times a transient store failure
	// (tracestore.ErrTransient) is retried, without waiting, before Ingest
	// gives up.
	ingestRetries = 3
)

// NewRuntime assembles a runtime around a framework, a telemetry store and
// an empty power tree.
func NewRuntime(fw *Framework, store *tracestore.Store, tree *powertree.Node, cfg RuntimeConfig) (*Runtime, error) {
	if fw == nil || store == nil || tree == nil {
		return nil, errors.New("core: runtime needs a framework, a store and a tree")
	}
	if tree.InstanceCount() != 0 {
		return nil, errors.New("core: runtime tree must start empty")
	}
	if cfg.ScoreFloor < 0 {
		return nil, fmt.Errorf("%w: got %v", ErrBadScoreFloor, cfg.ScoreFloor)
	}
	if cfg.MaxSwapsPerTick < 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadMaxSwaps, cfg.MaxSwapsPerTick)
	}
	if _, err := placement.NewPolicy(cfg.Placement); err != nil {
		return nil, fmt.Errorf("core: placement policy: %w", err)
	}
	floor := cfg.ScoreFloor
	if floor == 0 {
		floor = 1.2
	}
	swaps := cfg.MaxSwapsPerTick
	if swaps == 0 {
		swaps = 32
	}
	return &Runtime{
		fw: fw, store: store, tree: tree,
		scoreFloor: floor, maxSwaps: swaps,
		faults:    cfg.Faults,
		placeCfg:  cfg.Placement,
		services:  make(map[string]string),
		demands:   make(map[string]powertree.ResourceVector),
		quality:   make(map[string]tracestore.Quality),
		emergency: make(map[string]bool),
	}, nil
}

// Ingest forwards one power reading into the store: IngestRun's run of
// one.
func (r *Runtime) Ingest(id string, at time.Time, watts float64) error {
	return r.IngestRun(id, at, []float64{watts})
}

// IngestRun forwards one instance's readings at consecutive store slots,
// values[i] at start + i·step, into the store. Without fault injection the
// run goes to the store whole (tracestore.Store.AppendRun: all or nothing).
// With it, each reading first passes through the injector — it may be
// dropped, corrupted, skewed or delayed, or lost with the leaf the current
// placement hosts the instance on when the run starts — and whatever the
// injector delivers is appended, transient store failures retried up to
// ingestRetries times before surfacing.
func (r *Runtime) IngestRun(id string, start time.Time, values []float64) error {
	if r.faults == nil {
		if err := r.store.AppendRun(id, start, values); err != nil {
			return err
		}
		obsIngestSamples.Add(uint64(len(values)))
		return nil
	}
	leaf, step := r.leafName(id), r.store.Step()
	for i, watts := range values {
		for _, rd := range r.faults.Feed(id, leaf, start.Add(time.Duration(i)*step), watts) {
			if err := r.appendWithRetry(rd.ID, rd.At, rd.Watts); err != nil {
				return err
			}
		}
	}
	return nil
}

// leafName names the leaf hosting id in the current placement: "" before
// Bootstrap and for an instance not placed.
func (r *Runtime) leafName(id string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.view == nil {
		return ""
	}
	if leaf, ok := r.view.online.Leaf(id); ok {
		return leaf.Name
	}
	return ""
}

// FlushFaults drains the injector's reorder buffer into the store — call it
// once at the end of a replay so delayed readings are not lost. Without
// fault injection it is a no-op.
func (r *Runtime) FlushFaults() error {
	if r.faults == nil {
		return nil
	}
	for _, rd := range r.faults.Flush() {
		if err := r.appendWithRetry(rd.ID, rd.At, rd.Watts); err != nil {
			return err
		}
	}
	return nil
}

// appendWithRetry appends one reading the injector delivered, retrying the
// transient store failures the injector injects.
func (r *Runtime) appendWithRetry(id string, at time.Time, watts float64) error {
	for attempt := 0; ; attempt++ {
		var err error
		if r.faults.TransientAppendFailure(id, at, attempt) {
			err = fmt.Errorf("core: ingesting %q at %v: %w", id, at, tracestore.ErrTransient)
		} else if err = r.store.Append(id, at, watts); err == nil {
			obsIngestSamples.Inc()
			return nil
		}
		if !errors.Is(err, tracestore.ErrTransient) || attempt >= ingestRetries {
			return err
		}
		obsIngestRetries.Inc()
	}
}

// Tree exposes the current (placed) tree for inspection.
func (r *Runtime) Tree() *powertree.Node { return r.tree }

// Placed reports whether Bootstrap has run.
func (r *Runtime) Placed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.placed
}

// History returns a snapshot of the drift reports of every tick so far.
func (r *Runtime) History() []*DriftReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*DriftReport(nil), r.history...)
}

// Quarantined returns the instances the latest Bootstrap or Tick scored
// from reference traces instead of their own telemetry, in scoring order,
// followed by those admitted on reference traces since, in admission order.
// A retired instance leaves the list.
func (r *Runtime) Quarantined() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.quarantined...)
}

// InstanceQuality reports the trace quality the latest Bootstrap or Tick
// observed for an instance.
func (r *Runtime) InstanceQuality(id string) (tracestore.Quality, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.quality[id]
	return q, ok
}

// ActiveTrips returns the injected breaker-trip windows that overlapped the
// latest tick's window.
func (r *Runtime) ActiveTrips() []faults.TripWindow {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]faults.TripWindow(nil), r.lastTrips...)
}

// EmergencyNodes returns the nodes currently held under an emergency cap,
// sorted.
func (r *Runtime) EmergencyNodes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return detmap.SortedKeys(r.emergency)
}

// Bootstrap computes averaged I-traces from the store's history ending at
// asOf and places the given instances workload-aware. It can only run once.
// Instances whose history is missing or below the quarantine floor are
// placed using their service's reference trace (the mean of healthy peers)
// rather than failing the whole placement. A placement that leaves a node
// over a declared capacity is refused with placement.ErrNoCapacity, and the
// runtime stays unplaced.
func (r *Runtime) Bootstrap(instances []placement.Instance, asOf time.Time, trainWeeks int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.placed {
		return ErrAlreadyPlaced
	}
	trainWeeks, err := r.trainingWeeks(trainWeeks)
	if err != nil {
		return err
	}
	ids := make([]string, len(instances))
	for i, inst := range instances {
		ids[i] = inst.ID
		if err := inst.Demands.Validate(); err != nil {
			return fmt.Errorf("core: bootstrap demands for %q: %w", inst.ID, err)
		}
	}
	// Demands enter the runtime's ledger here. The placer spreads by power
	// alone, so a placement that leaves any node over a declared capacity is
	// refused with ErrNoCapacity. That failure, like any past this point,
	// takes back what this call wrote, leaving the ledger and the tree as
	// NewRuntime requires them. The maps are mutated in place:
	// placementCfg's closure captures r.demands.
	for _, inst := range instances {
		r.services[inst.ID] = inst.Service
		if len(inst.Demands) > 0 {
			r.demands[inst.ID] = inst.Demands.Clone()
		}
	}
	defer func() {
		if r.placed {
			return
		}
		for _, id := range ids {
			delete(r.services, id)
			delete(r.demands, id)
		}
		r.tree.ClearInstances()
	}()
	avg, quality, quarantined, err := r.scoringTraces("bootstrap", ids, r.trainingRead(asOf, trainWeeks))
	if err != nil {
		return err
	}
	if err := r.fw.placer().Place(r.tree, instances, workload.SubPowerFn(avg)); err != nil {
		return fmt.Errorf("core: bootstrap placement: %w", err)
	}
	v, err := r.newView(avg, quarantined, asOf, 0)
	if err != nil {
		return fmt.Errorf("core: bootstrap: %w", err)
	}
	var over error
	r.tree.Walk(func(n *powertree.Node) {
		if over != nil {
			return
		}
		used := v.online.Used(n)
		if dim, ok := used.Over(n.Capacities); ok {
			over = fmt.Errorf("core: bootstrap placement overcommits %q: %s %v used of %v: %w",
				n.Name, dim, used.Get(dim), n.Capacities[dim], placement.ErrNoCapacity)
		}
	})
	if over != nil {
		return over
	}
	r.quality = quality
	r.quarantined = quarantined
	obsQuarantined.Set(float64(len(quarantined)))
	if r.faults != nil {
		capper, err := capping.New(r.tree, capping.Config{SustainSteps: 1})
		if err != nil {
			return err
		}
		r.capper = capper
	}
	r.placed = true
	r.evalAsOf = asOf
	r.setView(v)
	return nil
}

// trainingWeeks resolves a requested training window: < 1 means the
// framework default, and a window longer than the store's retention is
// ErrTrainWeeks. The store holds nothing that old, and reading such a
// window would still allocate every slot of every resident's trace.
func (r *Runtime) trainingWeeks(weeks int) (int, error) {
	if weeks < 1 {
		weeks = r.fw.cfg.trainWeeks()
	}
	if retained := int(r.store.Retention() / (7 * 24 * time.Hour)); weeks > retained {
		return 0, fmt.Errorf("%w: %d weeks, the store keeps %v", ErrTrainWeeks, weeks, r.store.Retention())
	}
	return weeks, nil
}

// traceRead is one of the store's graded batch reads bound to a window and
// the framework's worker count: SnapshotQualityBatch over a tick window
// (tickRead), or AveragedITraceQualityBatch over a training window
// (trainingRead).
type traceRead func(ids []string, visit func(i int, tr timeseries.Series, q tracestore.Quality)) (int, error)

// tickRead reads the raw window [from, asOf).
func (r *Runtime) tickRead(from, asOf time.Time) traceRead {
	return func(ids []string, visit func(int, timeseries.Series, tracestore.Quality)) (int, error) {
		return r.store.SnapshotQualityBatch(ids, from, asOf, r.fw.cfg.Workers, visit)
	}
}

// trainingRead reads averaged I-traces over trainWeeks weeks ending at asOf.
func (r *Runtime) trainingRead(asOf time.Time, trainWeeks int) traceRead {
	return func(ids []string, visit func(int, timeseries.Series, tracestore.Quality)) (int, error) {
		return r.store.AveragedITraceQualityBatch(ids, asOf, trainWeeks, r.fw.cfg.Workers, visit)
	}
}

// quarantines reports whether a trace is unfit to score its instance from:
// graded poor or no-data (raw coverage below half the window), or a window
// that never draws power (the asynchrony scores are undefined for a trace
// whose peak is ≤ 0).
func (r *Runtime) quarantines(tr timeseries.Series, q tracestore.Quality) bool {
	return q.Grade >= tracestore.GradePoor || tr.Peak() <= 0
}

// readTraces is the runtime's one way from telemetry to scoring traces. It
// reads every instance's trace through read in one batch, as the store
// returns it, and grades it; an instance the store has never seen grades
// no-data, like one whose window is empty. The store's workers also apply
// the quarantine rule, each to the traces it read; the maps and the list
// are then assembled in ids order, so the result does not depend on the
// worker count. traces holds the traces fit to score from, and quarantined
// lists, in ids order, the instances the quarantine rule rejects, which the
// caller scores from reference traces (fillReferences). what names the
// caller in errors, which name the first failing instance in ids order.
func (r *Runtime) readTraces(what string, ids []string, read traceRead) (map[string]timeseries.Series, map[string]tracestore.Quality, []string, error) {
	trs := make([]timeseries.Series, len(ids))
	qs := make([]tracestore.Quality, len(ids))
	rejected := make([]bool, len(ids))
	if i, err := read(ids, func(i int, tr timeseries.Series, q tracestore.Quality) {
		trs[i], qs[i], rejected[i] = tr, q, r.quarantines(tr, q)
	}); err != nil {
		return nil, nil, nil, fmt.Errorf("core: %s trace for %q: %w", what, ids[i], err)
	}
	traces := make(map[string]timeseries.Series, len(ids))
	quality := make(map[string]tracestore.Quality, len(ids))
	var quarantined []string
	for i, id := range ids {
		quality[id] = qs[i]
		if rejected[i] {
			quarantined = append(quarantined, id)
			continue
		}
		traces[id] = trs[i]
	}
	return traces, quality, quarantined, nil
}

// scoringTraces is readTraces over a batch that is its own reference
// population: each quarantined instance is scored from the batch's healthy
// traces, in ids order.
//
// smoothop:locked mu
func (r *Runtime) scoringTraces(what string, ids []string, read traceRead) (map[string]timeseries.Series, map[string]tracestore.Quality, []string, error) {
	traces, quality, quarantined, err := r.readTraces(what, ids, read)
	if err == nil && len(quarantined) > 0 {
		err = r.fillReferences(what, quarantined, traces, ids, traces, nil)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return traces, quality, quarantined, nil
}

// fillReferences is the one reference-trace rule. Each quarantined
// instance is scored from a population — ids in order, their traces, and
// the ids to skip as unhealthy — by the mean of its service's healthy
// traces there (timeseries.Mean), or of all of them when its service has
// none or they are misaligned. The population's order is the summation
// order. The mean is snapped to the scoring grid, as every trace the
// store returns is. An empty or misaligned population is
// ErrAllQuarantined. The reference traces go into traces.
//
// smoothop:locked mu
func (r *Runtime) fillReferences(what string, quarantined []string, traces map[string]timeseries.Series, ids []string, pop map[string]timeseries.Series, skip map[string]bool) error {
	byService := make(map[string][]timeseries.Series)
	var fleet []timeseries.Series
	for _, id := range ids {
		tr, ok := pop[id]
		if !ok || skip[id] {
			continue
		}
		byService[r.services[id]] = append(byService[r.services[id]], tr)
		fleet = append(fleet, tr)
	}
	for _, id := range quarantined {
		ref, err := timeseries.Mean(byService[r.services[id]]...)
		if err != nil {
			ref, err = timeseries.Mean(fleet...)
		}
		if err != nil {
			return fmt.Errorf("core: %s: %w", what, ErrAllQuarantined)
		}
		timeseries.SnapAll(ref.Values)
		traces[id] = ref
		obsFallbackTraces.Inc()
	}
	return nil
}

// Tick evaluates the placement against the telemetry window [asOf−window,
// asOf) and remaps if fragmentation re-appeared. The resulting drift report
// is appended to the history and returned.
//
// Degradation semantics: every instance's window is graded, instances below
// the quarantine floor are scored from their service's reference trace, and
// when injected breaker-trip windows overlap the tick the tree's breakers
// are re-checked at the reduced budgets — violations escalate into an
// emergency capping throttle that releases once the trip clears.
func (r *Runtime) Tick(asOf time.Time, window time.Duration) (*DriftReport, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return nil, ErrNotPlaced
	}
	timer := obsTickSpan.Start()
	if window <= 0 {
		window = 7 * 24 * time.Hour
	}
	from := asOf.Add(-window)
	fresh, quality, quarantined, err := r.scoringTraces("tick", r.tree.AllInstances(), r.tickRead(from, asOf))
	if err != nil {
		return nil, err
	}
	// The tick's one full aggregation: a view over the fresh window. Σ leaf
	// peaks and the trip-window breaker check read its ledger, the remap
	// moves instances through its placer, and it becomes the runtime's view
	// unless an admission view is live.
	tv, err := r.newView(fresh, quarantined, asOf, 0)
	if err != nil {
		return nil, fmt.Errorf("core: tick: %w", err)
	}
	rep, err := adapt(tv.online, r.scoreFloor, r.maxSwaps, r.fw.cfg.Workers)
	if err != nil {
		return nil, err
	}
	rep.Quarantined = quarantined
	r.quality = quality
	r.quarantined = quarantined
	obsQuarantined.Set(float64(len(quarantined)))
	r.evalAsOf = asOf
	r.adoptTick(tv, r.swappedLeaves(rep.Swaps))

	if err := r.emergencyStep(rep, from, asOf, tv); err != nil {
		return nil, err
	}

	r.history = append(r.history, rep)
	obsTicks.Inc()
	obsTickSwaps.Add(uint64(len(rep.Swaps)))
	timer.End()
	return rep, nil
}

// swappedLeaves lists the leaves a remap's swaps touched, each once, in swap
// order. A name the tree does not know yields a nil entry, which no view
// will accept.
func (r *Runtime) swappedLeaves(swaps []placement.Swap) []*powertree.Node {
	seen := make(map[string]bool, 2*len(swaps))
	var leaves []*powertree.Node
	for _, sw := range swaps {
		for _, name := range [2]string{sw.NodeA, sw.NodeB} {
			if !seen[name] {
				seen[name] = true
				leaves = append(leaves, r.tree.Find(name))
			}
		}
	}
	return leaves
}

// adoptTick settles which view the runtime holds after a tick. A live
// admission view stays: its traces ARE its window's telemetry, so it only
// has to absorb the remap's swaps, after which retirements and explicitly
// windowed admissions keep reusing it while a zero-asOf admission re-keys to
// the new evalAsOf and rebuilds. Otherwise — no admission view yet, or one
// that cannot be reconciled with the tree — the tick's own view takes over.
//
// smoothop:locked mu
func (r *Runtime) adoptTick(tv *view, moved []*powertree.Node) {
	if r.view.weeks == 0 {
		r.setView(tv)
		return
	}
	if len(moved) > 0 {
		// The swaps moved residents, whose traces the view already holds.
		if err := r.view.online.Resync(moved...); err != nil {
			obsOnlineDrops.Inc()
			r.setView(tv)
			return
		}
		obsOnlineResyncs.Inc()
	}
	r.viewChanged()
}

// emergencyStep runs the injected-trip escalation path: check breakers at
// trip-reduced budgets and drive the capping controller. It fills the
// report's ActiveTrips, BreakerTrips and EmergencyThrottles.
//
// smoothop:locked mu
func (r *Runtime) emergencyStep(rep *DriftReport, from, asOf time.Time, tv *view) error {
	if r.faults == nil || r.capper == nil {
		r.lastTrips = nil
		return nil
	}
	trips := r.faults.TripsOverlapping(from, asOf)
	r.lastTrips = trips
	rep.ActiveTrips = trips

	// The lowest backup-feed fraction wins when windows overlap on a node.
	factor := make(map[string]float64)
	for _, tp := range trips {
		if f, ok := factor[tp.Node]; !ok || tp.Budget() < f {
			factor[tp.Node] = tp.Budget()
		}
	}
	// Tripped nodes run at their backup-feed budgets through one overlay,
	// read by the breaker check and the capper alike; the tree's budgets are
	// never written.
	var override powertree.BudgetOverlay
	if len(factor) > 0 {
		nominal := make(map[string]float64, len(factor))
		r.tree.Walk(func(n *powertree.Node) {
			if _, ok := factor[n.Name]; ok {
				nominal[n.Name] = n.Budget
			}
		})
		override = func(node string) (float64, bool) {
			f, ok := factor[node]
			if !ok {
				return 0, false
			}
			return nominal[node] * f, true
		}
		rep.BreakerTrips = tv.online.Aggregates().CheckBreakersWithBudgets(2*r.store.Step(), override)
		obsBreakerTrips.Add(uint64(len(rep.BreakerTrips)))
	}

	// Step the capper when budgets are reduced, or when a previous tick left
	// caps armed and the trip has since cleared (so they can release).
	if len(factor) == 0 && len(r.emergency) == 0 {
		return nil
	}
	throttles, events, err := r.capper.StepWithBudgets(peakReader(tv.traces), override)
	if err != nil {
		return err
	}
	rep.EmergencyThrottles = throttles
	obsEmergencyThrottles.Add(uint64(len(throttles)))
	for _, ev := range events {
		if ev.Armed {
			r.emergency[ev.Node] = true
		} else {
			delete(r.emergency, ev.Node)
		}
	}
	return nil
}

// peakReader views a window's traces as capping state (capping.PeakState).
func peakReader(fresh map[string]timeseries.Series) capping.Reader {
	return func(id string) (capping.InstanceState, bool) {
		tr, ok := fresh[id]
		if !ok || tr.Len() == 0 {
			return capping.InstanceState{}, false
		}
		return capping.PeakState(tr.Peak()), true
	}
}
