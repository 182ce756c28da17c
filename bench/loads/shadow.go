package loads

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/bench/harness"
	"repro/internal/capping"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/detmap"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// The layers spans are attributed to: one per package an operation crosses.
const (
	layerStore     = "tracestore"
	layerScore     = "score"
	layerCluster   = "cluster"
	layerPlacement = "placement"
	layerTree      = "powertree"
	layerMetrics   = "metrics"
	layerPlan      = "plan"
	layerCapping   = "capping"
	layerCore      = "core"
	layerHTTP      = "httpapi"
)

var layers = []string{layerStore, layerScore, layerCluster, layerPlacement, layerTree, layerMetrics, layerPlan, layerCapping, layerCore, layerHTTP}

// tracer produces the per-layer numbers of a traced run without touching
// the program: immediately before each real operation it re-enacts that
// operation's layer calls on private copies — a lock-stepped shadow tree,
// placement.Online and powertree.Aggregator over the same store — each call
// under a span whose parent is the real operation's root span. Everything
// here is deterministic, so each re-enactment must reproduce the real
// operation's result (same swaps, same leaf, same report); a mismatch marks
// the traced numbers invalid instead of silently measuring different work.
//
// Every method is safe on a nil tracer and then does nothing, so the
// workloads read the same traced or not.
type tracer struct {
	rec *harness.Recorder

	// world serializes each (re-enactment, real operation) pair. With two
	// clients, pairs would otherwise interleave: a query's re-enactment could
	// capture its snapshot on one side of the other client's mutation and the
	// real query on the other, and the counter and allocation deltas taken
	// around a real operation would include a neighbour's. A traced run is
	// therefore serial; what that costs shows as traced.ops_per_s against the
	// untraced ops_per_s.
	world sync.Mutex

	mu            sync.Mutex // guards everything below
	nextOp        int64
	alt           map[string]int
	nMismatch     int
	firstMismatch string
	rebuildOps    map[int]bool // root spans of admissions that rebuilt the view

	sh shadow

	// mark is taken just before the real operation; work and allocs
	// accumulate the deltas seen just after it.
	mark    memMark
	work    counters
	allocs  map[string]*allocTally
	pause0  uint64
	pauseNs uint64
	probes  map[string]float64 // unit costs by metric name
}

// shadow is the harness's private copy of the runtime's derived state.
type shadow struct {
	store    *tracestore.Store
	policy   placement.PolicyConfig
	services map[string]string

	tree     *powertree.Node
	evalAsOf time.Time
	// fresh is the latest Bootstrap/Tick trace view; traces is the admission
	// view (nil until the first admission), keyed at viewAsOf.
	fresh     map[string]timeseries.Series
	traces    map[string]timeseries.Series
	viewAsOf  time.Time
	online    *placement.Online
	agg       *powertree.Aggregator
	aggOnline bool
	demands   map[string]powertree.ResourceVector

	// The cached planning snapshot and the harness's own copy of what it
	// captured, for re-enacting an evaluation's inner layer calls.
	snap       *plan.Snapshot
	snapTree   *powertree.Node
	snapTraces map[string]timeseries.Series
}

func newTracer() *tracer {
	return &tracer{
		rec:        harness.NewRecorder(time.Now),
		alt:        make(map[string]int),
		rebuildOps: make(map[int]bool),
		work:       make(counters),
		allocs:     make(map[string]*allocTally),
		probes:     make(map[string]float64),
	}
}

func (t *tracer) spans() []harness.Span {
	if t == nil {
		return nil
	}
	return t.rec.Spans()
}

func (t *tracer) mismatches() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nMismatch
}

func (t *tracer) mismatch(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nMismatch++
	if t.firstMismatch == "" {
		t.firstMismatch = fmt.Sprintf(format, args...)
	}
}

// alternate reports true on every second call for kind: traced runs send
// every other admission and plan query straight to the runtime, so the HTTP
// hop's cost is the difference between the two halves.
func (t *tracer) alternate(kind string) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.alt[kind]++
	return t.alt[kind]%2 == 0
}

// beginOp opens an operation's root span. The re-enactment runs next, then
// restart moves the root's start to just before the real operation.
func (t *tracer) beginOp(name, layer string) int {
	if t == nil {
		return -1
	}
	t.world.Lock()
	t.nextOp++
	return t.rec.Begin(name, layer, -1, t.nextOp)
}

func (t *tracer) restart(root int) {
	if t == nil {
		return
	}
	t.allocBefore()
	t.rec.Restart(root)
}

// endOp closes the root span and lets the next mutation or query proceed.
func (t *tracer) endOp(root int) {
	if t == nil {
		return
	}
	t.rec.End(root)
	t.allocAfter(root)
	t.world.Unlock()
}

// child times fn as a layer call made on behalf of parent.
func (t *tracer) child(parent int, name, layer string, fn func()) {
	id := t.rec.Begin(name, layer, parent, t.rec.OpOf(parent))
	fn()
	t.rec.End(id)
}

// ---- shadow plumbing -----------------------------------------------------------

func viewFn(view map[string]timeseries.Series) func(string) (timeseries.Series, bool) {
	return func(id string) (timeseries.Series, bool) {
		tr, ok := view[id]
		return tr, ok
	}
}

// policyCfg mirrors Runtime.placementCfg: the configured policy with the
// demand ledger overlaid.
func (s *shadow) policyCfg() placement.PolicyConfig {
	cfg := s.policy
	if len(s.demands) == 0 {
		return cfg
	}
	ledger := s.demands
	cfg.Demands = func(id string) (powertree.ResourceVector, bool) {
		d, ok := ledger[id]
		return d, ok
	}
	return cfg
}

// currentView is the trace view reads are answered from: the admission view
// when one exists, else the latest Bootstrap/Tick traces.
func (s *shadow) currentView() map[string]timeseries.Series {
	if s.traces != nil {
		return s.traces
	}
	return s.fresh
}

func (s *shadow) init(e *env) {
	s.store = e.store
	s.policy = e.spec.policy
	s.demands = make(map[string]powertree.ResourceVector)
	s.services = make(map[string]string, len(e.fleet.Instances))
	for _, inst := range e.fleet.Instances {
		s.services[inst.ID] = inst.Service
	}
	s.tree, s.fresh, s.traces, s.online, s.agg, s.snap = nil, nil, nil, nil, nil, nil
}

// attach adopts a runtime that set-up already bootstrapped, ticked (at
// asOf) and warmed with one admission, by cloning its tree and building the
// same admission view the runtime holds.
func (t *tracer) attach(e *env, asOf time.Time, demands map[string]powertree.ResourceVector) error {
	if t == nil {
		return nil
	}
	s := &t.sh
	s.init(e)
	for id, d := range demands {
		s.demands[id] = d
	}
	s.tree = e.rt.Tree().Clone()
	s.evalAsOf = asOf
	if err := s.rebuildView(t, -1); err != nil {
		return fmt.Errorf("loads: shadow view: %w", err)
	}
	return nil
}

// rebuildView mirrors Runtime.ensureOnline: averaged I-traces for every
// resident, a fresh placement.Online and a fresh aggregator over them.
// parent < 0 builds without recording spans.
func (s *shadow) rebuildView(t *tracer, parent int) error {
	span := func(name, layer string, fn func()) {
		if parent < 0 {
			fn()
			return
		}
		t.child(parent, name, layer, fn)
	}
	traces := make(map[string]timeseries.Series)
	var err error
	span("tracestore.avgtrace", layerStore, func() {
		for _, id := range s.tree.AllInstances() {
			tr, _, e := s.store.AveragedITraceQuality(id, s.evalAsOf, trainWeeks)
			if e != nil {
				err = e
				return
			}
			traces[id] = tr
		}
	})
	if err != nil {
		return err
	}
	span("placement.online_build", layerPlacement, func() {
		s.online, err = placement.NewOnline(s.tree, placement.TraceFn(viewFn(traces)), s.policyCfg())
	})
	if err != nil {
		return err
	}
	s.traces, s.viewAsOf = traces, s.evalAsOf
	s.snap = nil
	return s.rebuildAgg(t, parent, traces, true)
}

// rebuildAgg mirrors Runtime.rebuildFragView.
func (s *shadow) rebuildAgg(t *tracer, parent int, view map[string]timeseries.Series, online bool) error {
	var err error
	build := func() { s.agg, err = powertree.NewAggregator(s.tree, viewFn(view)) }
	rates := func() { _, err = metrics.FragmentationRatesFrom(s.tree, s.agg.Snapshot()) }
	if parent < 0 {
		build()
		if err == nil {
			rates()
		}
	} else {
		t.child(parent, "powertree.aggregate", layerTree, build)
		if err == nil {
			t.child(parent, "metrics.frag_rates", layerMetrics, rates)
		}
	}
	s.aggOnline = online
	return err
}

// fragDelta mirrors Runtime.fragDelta after churn on one leaf.
func (s *shadow) fragDelta(t *tracer, parent int, leaf *powertree.Node) error {
	if s.agg == nil || !s.aggOnline {
		return s.rebuildAgg(t, parent, s.traces, true)
	}
	var err error
	var snap *powertree.Aggregates
	t.child(parent, "powertree.delta_update", layerTree, func() {
		if err = s.agg.MarkDirty(leaf); err == nil {
			snap, err = s.agg.Update()
		}
	})
	if err != nil {
		return err
	}
	t.child(parent, "metrics.frag_rates", layerMetrics, func() {
		_, err = metrics.FragmentationRatesFrom(s.tree, snap)
	})
	return err
}

// ---- bootstrap -------------------------------------------------------------------

// bootstrap re-enacts Runtime.Bootstrap on a clone of the empty tree: the
// averaged I-traces, then the recursive workload-aware placement spelled out
// over the exported score and cluster calls it is made of, then the gauge
// aggregation. It returns the instance→leaf map the real Bootstrap must
// reproduce.
func (t *tracer) bootstrap(root int, e *env, seed int64, insts []placement.Instance) map[string]string {
	if t == nil {
		return nil
	}
	s := &t.sh
	s.init(e)
	s.tree = e.empty.Clone()
	s.evalAsOf = e.trainEnd
	avg := make(map[string]timeseries.Series, len(insts))
	var err error
	t.child(root, "tracestore.avgtrace", layerStore, func() {
		for _, inst := range insts {
			tr, _, e := s.store.AveragedITraceQuality(inst.ID, s.evalAsOf, trainWeeks)
			if e != nil {
				err = e
				return
			}
			avg[inst.ID] = tr
		}
	})
	if err == nil {
		place := t.rec.Begin("placement.batch_place", layerPlacement, root, t.rec.OpOf(root))
		sorted := append([]placement.Instance(nil), insts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
		err = t.placeRecursive(place, s.tree, sorted, avg, seed)
		t.rec.End(place)
	}
	if err == nil {
		err = s.rebuildAgg(t, root, avg, false)
	}
	if err != nil {
		t.mismatch("bootstrap re-enactment failed: %v", err)
		return nil
	}
	s.fresh = avg
	return s.tree.InstanceLeaves()
}

// placeRecursive is placement.WorkloadAware.Place (TopServices 8, two
// clusters per child, balanced k-means) written over exported calls only.
func (t *tracer) placeRecursive(parent int, node *powertree.Node, insts []placement.Instance, traces map[string]timeseries.Series, seed int64) error {
	if len(insts) == 0 {
		return nil
	}
	if node.IsLeaf() {
		for _, inst := range insts {
			if err := node.Attach(inst.ID); err != nil {
				return err
			}
		}
		return nil
	}
	q := len(node.Children)
	groups := make([][]placement.Instance, q)
	if len(insts) <= q {
		for i, inst := range insts {
			groups[i] = []placement.Instance{inst}
		}
	} else {
		var basis []timeseries.Series
		var points [][]float64
		var res *cluster.Result
		var err error
		t.child(parent, "score.vectors", layerScore, func() {
			byService := make(map[string][]timeseries.Series)
			power := make(map[string]float64)
			series := make([]timeseries.Series, len(insts))
			for i, inst := range insts {
				tr := traces[inst.ID]
				series[i] = tr
				byService[inst.Service] = append(byService[inst.Service], tr)
				power[inst.Service] += tr.MeanValue()
			}
			names := detmap.SortedKeys(power)
			sort.SliceStable(names, func(i, j int) bool { return power[names[i]] > power[names[j]] })
			if len(names) > 8 {
				names = names[:8]
			}
			if basis, err = score.ServiceTraces(names, byService); err == nil {
				points, err = score.VectorsParallel(series, basis, 0)
			}
		})
		if err != nil {
			return err
		}
		h := 2 * q
		if h > len(insts) {
			h = q
		}
		t.child(parent, "cluster.kmeans", layerCluster, func() {
			res, err = cluster.BalancedKMeans(points, cluster.Config{K: h, Seed: seed, Restarts: 1})
		})
		if err != nil {
			return err
		}
		for c := 0; c < h; c++ {
			for i, m := range res.Members(c) {
				groups[(i+c)%q] = append(groups[(i+c)%q], insts[m])
			}
		}
	}
	for i, child := range node.Children {
		if err := t.placeRecursive(parent, child, groups[i], traces, seed); err != nil {
			return err
		}
	}
	return nil
}

func (t *tracer) checkBootstrap(want map[string]string, tree *powertree.Node) {
	if t == nil || want == nil {
		return
	}
	got := tree.InstanceLeaves()
	if len(got) != len(want) {
		t.mismatch("bootstrap placed %d instances, re-enactment %d", len(got), len(want))
		return
	}
	for _, id := range detmap.SortedKeys(want) {
		if got[id] != want[id] {
			t.mismatch("bootstrap put %s on %s, re-enactment on %s", id, got[id], want[id])
			return
		}
	}
}

// ---- tick ----------------------------------------------------------------------

type tickWant struct {
	sum   float64
	swaps []placement.Swap
}

// tick re-enacts Runtime.Tick's layer calls on the shadow tree.
func (t *tracer) tick(root int, asOf time.Time) *tickWant {
	if t == nil {
		return nil
	}
	s := &t.sh
	from := asOf.Add(-week)
	fresh := make(map[string]timeseries.Series)
	var err error
	t.child(root, "tracestore.snapshot", layerStore, func() {
		for _, id := range s.tree.AllInstances() {
			tr, _, e := s.store.SnapshotQuality(id, from, asOf)
			if e != nil {
				err = e
				return
			}
			fresh[id] = tr
		}
	})
	traceFn := placement.TraceFn(workload.SubPowerFn(fresh))
	want := &tickWant{}
	worst := 0.0
	if err == nil {
		t.child(root, "placement.level_asynchrony", layerPlacement, func() {
			var scores map[string]float64
			scores, err = placement.LevelAsynchrony(s.tree, powertree.RPP, traceFn)
			first := true
			for _, name := range detmap.SortedKeys(scores) {
				if first || scores[name] < worst {
					worst, first = scores[name], false
				}
			}
		})
	}
	if err == nil {
		t.child(root, "powertree.sum_of_peaks", layerTree, func() {
			want.sum, err = s.tree.SumOfPeaks(powertree.RPP, powertree.PowerFn(workload.SubPowerFn(fresh)))
		})
	}
	if err == nil && worst < scoreFloor {
		t.child(root, "placement.remap", layerPlacement, func() {
			want.swaps, err = placement.Remap(s.tree, traceFn, placement.RemapConfig{MaxSwaps: maxSwaps, Policy: s.policyCfg()})
		})
	}
	if err == nil && s.online != nil && len(want.swaps) > 0 {
		t.child(root, "placement.resync", layerPlacement, func() {
			seen := make(map[string]bool)
			var leaves []*powertree.Node
			for _, sw := range want.swaps {
				for _, name := range [2]string{sw.NodeA, sw.NodeB} {
					if !seen[name] {
						seen[name] = true
						leaves = append(leaves, s.tree.Find(name))
					}
				}
			}
			err = s.online.Resync(leaves...)
		})
	}
	if err == nil {
		err = s.rebuildAgg(t, root, fresh, false)
	}
	if err != nil {
		t.mismatch("tick re-enactment failed: %v", err)
		return nil
	}
	s.fresh, s.evalAsOf, s.snap = fresh, asOf, nil
	return want
}

func (t *tracer) checkTick(want *tickWant, rep *core.DriftReport) {
	if t == nil || want == nil || rep == nil {
		return
	}
	if rep.SumOfPeaks != want.sum || len(rep.Swaps) != len(want.swaps) {
		t.mismatch("tick saw Σ leaf peaks %v with %d swaps, re-enactment %v with %d", rep.SumOfPeaks, len(rep.Swaps), want.sum, len(want.swaps))
		return
	}
	for i, sw := range rep.Swaps {
		if sw != want.swaps[i] {
			t.mismatch("tick swap %d was %+v, re-enactment %+v", i, sw, want.swaps[i])
			return
		}
	}
}

// ---- admission and retirement ----------------------------------------------------

type leafWant struct {
	leaf    string
	refused bool
}

// admit re-enacts Runtime.Admit: rebuild the view if a tick re-keyed it,
// read the arrival's trace, place it through the shadow Online, fold the
// touched leaf into the shadow aggregator.
func (t *tracer) admit(root int, m *workload.Instance, demand powertree.ResourceVector) *leafWant {
	if t == nil {
		return nil
	}
	s := &t.sh
	if s.online == nil || !s.viewAsOf.Equal(s.evalAsOf) {
		if err := s.rebuildView(t, root); err != nil {
			t.mismatch("view rebuild re-enactment failed: %v", err)
			return nil
		}
		t.rebuildOps[root] = true
	}
	var tr timeseries.Series
	var err error
	t.child(root, "tracestore.avgtrace", layerStore, func() {
		tr, _, err = s.store.AveragedITraceQuality(m.ID, s.evalAsOf, trainWeeks)
	})
	if err != nil {
		t.mismatch("admission trace re-enactment failed: %v", err)
		return nil
	}
	s.traces[m.ID] = tr
	var leaf *powertree.Node
	t.child(root, "placement.online_admit", layerPlacement, func() {
		leaf, err = s.online.Admit(placement.Instance{ID: m.ID, Service: m.Service, Demands: demand})
	})
	if errors.Is(err, placement.ErrNoCapacity) {
		delete(s.traces, m.ID)
		return &leafWant{refused: true}
	}
	if err != nil {
		delete(s.traces, m.ID)
		t.mismatch("admission re-enactment failed: %v", err)
		return nil
	}
	if len(demand) > 0 {
		s.demands[m.ID] = demand
	}
	s.snap = nil
	if err := s.fragDelta(t, root, leaf); err != nil {
		t.mismatch("gauge refresh re-enactment failed: %v", err)
	}
	return &leafWant{leaf: leaf.Name}
}

func (t *tracer) retire(root int, id string) *leafWant {
	if t == nil {
		return nil
	}
	s := &t.sh
	if s.online == nil {
		if err := s.rebuildView(t, -1); err != nil {
			t.mismatch("view rebuild before retirement failed: %v", err)
			return nil
		}
	}
	var leaf *powertree.Node
	var err error
	t.child(root, "placement.online_retire", layerPlacement, func() {
		leaf, err = s.online.Retire(id)
	})
	if err != nil {
		t.mismatch("retirement re-enactment failed: %v", err)
		return nil
	}
	delete(s.traces, id)
	delete(s.demands, id)
	s.snap = nil
	if err := s.fragDelta(t, root, leaf); err != nil {
		t.mismatch("gauge refresh re-enactment failed: %v", err)
	}
	return &leafWant{leaf: leaf.Name}
}

func (t *tracer) checkLeaf(want *leafWant, leaf string, refused bool) {
	if t == nil || want == nil {
		return
	}
	if want.refused != refused || want.leaf != leaf {
		t.mismatch("operation answered leaf %q refused %v, re-enactment leaf %q refused %v", leaf, refused, want.leaf, want.refused)
	}
}

// ---- reads ----------------------------------------------------------------------

type getWant struct {
	rows []metrics.FragmentationRow
	tree []byte
}

func (t *tracer) get(root int, kind string) *getWant {
	if t == nil {
		return nil
	}
	s := &t.sh
	want := &getWant{}
	var err error
	switch kind {
	case "frag_get":
		t.child(root, "metrics.multi_frag", layerMetrics, func() {
			want.rows, err = metrics.MultiFragmentationRates(s.tree, viewFn(s.currentView()), s.policyCfg().Demands)
		})
	case "tree_get":
		t.child(root, "powertree.tree_encode", layerTree, func() {
			var buf bytes.Buffer
			err = s.tree.Save(&buf)
			want.tree = buf.Bytes()
		})
	}
	if err != nil {
		t.mismatch("%s re-enactment failed: %v", kind, err)
		return nil
	}
	return want
}

func (t *tracer) checkGet(want *getWant, kind string, body []byte) {
	if t == nil || want == nil {
		return
	}
	switch kind {
	case "tree_get":
		if !bytes.Equal(body, want.tree) {
			t.mismatch("GET /v1/tree returned %d bytes that differ from the shadow tree's %d", len(body), len(want.tree))
		}
	case "frag_get":
		var rows []struct {
			Level     string  `json:"level"`
			Dimension string  `json:"dimension"`
			RatePct   float64 `json:"rate_pct"`
		}
		if err := json.Unmarshal(body, &rows); err != nil || len(rows) != len(want.rows) {
			t.mismatch("GET /v1/fragmentation returned %d rows, re-enactment %d (%v)", len(rows), len(want.rows), err)
			return
		}
		for i, row := range rows {
			if w := want.rows[i]; row.Level != w.Level.String() || row.Dimension != w.Dimension || row.RatePct != w.RatePct {
				t.mismatch("fragmentation row %d was %+v, re-enactment %s/%s %v", i, row, w.Level, w.Dimension, w.RatePct)
				return
			}
		}
	}
}

// ---- planning --------------------------------------------------------------------

func (t *tracer) decodePlan(body []byte) *plan.Result {
	if t == nil {
		return nil
	}
	var res plan.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.mismatch("decoding /v1/plan response: %v", err)
		return nil
	}
	return &res
}

// plan re-enacts a query: capture a snapshot if a mutation dropped the
// cached one, evaluate it, and under the evaluation span repeat the layer
// calls the evaluation is made of on a scratch clone.
func (t *tracer) plan(root int, q plan.Query) *plan.Result {
	if t == nil {
		return nil
	}
	s := &t.sh
	cold := s.snap == nil
	var err error
	if cold {
		view := s.currentView()
		t.child(root, "plan.snapshot_capture", layerPlan, func() {
			s.snap, err = plan.NewSnapshot(s.tree, view, s.services, s.evalAsOf, step)
		})
		if err == nil {
			s.snapTree = s.tree.Clone()
			s.snapTraces = make(map[string]timeseries.Series, len(view))
			for id, tr := range view {
				s.snapTraces[id] = tr
			}
		}
	}
	snap, tree, traces := s.snap, s.snapTree, s.snapTraces
	if err != nil {
		t.mismatch("snapshot capture re-enactment failed: %v", err)
		return nil
	}
	eval := t.rec.Begin("plan.eval_"+q.Kind, layerPlan, root, t.rec.OpOf(root))
	res, err := snap.Evaluate(context.Background(), q, 0)
	t.rec.End(eval)
	if err != nil {
		t.mismatch("plan evaluation re-enactment failed: %v", err)
		return nil
	}
	t.planInner(eval, q, cold, tree, traces, s.services, res)
	return res
}

// planInner repeats, on a scratch clone, the layer calls Snapshot.Evaluate
// makes for this query kind, each under a span whose parent is the
// evaluation span — so the plan layer's self time is what is left once
// powertree, placement, metrics and capping have been accounted for.
func (t *tracer) planInner(eval int, q plan.Query, cold bool, tree *powertree.Node, traces map[string]timeseries.Series, services map[string]string, want *plan.Result) {
	extra := make(map[string]timeseries.Series)
	fn := func(id string) (timeseries.Series, bool) {
		if tr, ok := extra[id]; ok {
			return tr, true
		}
		tr, ok := traces[id]
		return tr, ok
	}
	report := func(on *powertree.Node) float64 {
		var aggs *powertree.Aggregates
		var err error
		t.child(eval, "powertree.aggregate_all", layerTree, func() {
			aggs, err = on.AggregateAllParallel(fn, 0)
		})
		if err != nil {
			t.mismatch("plan inner aggregation failed: %v", err)
			return 0
		}
		t.child(eval, "metrics.frag_rates", layerMetrics, func() {
			_, _ = metrics.FragmentationRatesFrom(on, aggs)
		})
		var sum float64
		t.child(eval, "powertree.check_breakers", layerTree, func() {
			aggs.CheckBreakers(2 * step)
			sum = aggs.SumOfPeaks(powertree.RPP)
		})
		return sum
	}
	if cold {
		report(tree) // the shared "before" report
	}
	var scratch *powertree.Node
	t.child(eval, "powertree.clone", layerTree, func() { scratch = tree.Clone() })
	admitAll := func(ids []string, service string, tr *timeseries.Series) {
		var online *placement.Online
		var err error
		t.child(eval, "placement.online_build", layerPlacement, func() {
			online, err = placement.NewOnline(scratch, placement.TraceFn(fn), placement.PolicyConfig{Kind: placement.PolicyKind(q.Policy), Seed: q.Seed})
		})
		if err != nil {
			t.mismatch("plan inner view failed: %v", err)
			return
		}
		t.child(eval, "placement.online_admit", layerPlacement, func() {
			for _, id := range ids {
				if tr != nil {
					extra[id] = *tr
				}
				if _, err := online.Admit(placement.Instance{ID: id, Service: service}); err != nil {
					delete(extra, id)
					if tr != nil {
						return // identical arrivals: the first refusal decides the rest
					}
				}
			}
		})
	}
	switch q.Kind {
	case plan.KindTripBreaker:
		if node := scratch.Find(q.Node); node != nil {
			f := q.BudgetFraction
			if f == 0 {
				f = 0.5
			}
			node.Budget *= f
		}
	case plan.KindAddInstances:
		var peers []timeseries.Series
		for _, id := range scratch.AllInstances() {
			if services[id] == q.Archetype {
				peers = append(peers, traces[id])
			}
		}
		if len(peers) == 0 {
			t.mismatch("plan inner archetype %q has no residents", q.Archetype)
			return
		}
		// The pointwise mean exactly as plan computes it (sum, then divide),
		// so the synthetic arrivals are bit-identical.
		vals := make([]float64, peers[0].Len())
		for _, p := range peers {
			for i, v := range p.Values {
				vals[i] += v
			}
		}
		for i := range vals {
			vals[i] /= float64(len(peers))
		}
		mean := timeseries.New(peers[0].Start, peers[0].Step, vals)
		ids := make([]string, q.Count)
		for i := range ids {
			ids[i] = fmt.Sprintf("plan~%s~%06d", q.Archetype, i)
		}
		admitAll(ids, q.Archetype, &mean)
	case plan.KindReplaceService:
		var ids []string
		for _, id := range scratch.AllInstances() {
			if services[id] == q.Service {
				ids = append(ids, id)
			}
		}
		member := make(map[string]bool, len(ids))
		for _, id := range ids {
			member[id] = true
		}
		for _, leaf := range scratch.Leaves() {
			for i := len(leaf.Instances) - 1; i >= 0; i-- {
				if member[leaf.Instances[i]] {
					leaf.Detach(leaf.Instances[i])
				}
			}
		}
		admitAll(ids, q.Service, nil)
	}
	if sum := report(scratch); sum != want.After.SumOfLeafPeaksWatts {
		t.mismatch("plan %s inner re-enactment ended at Σ leaf peaks %v, the evaluation at %v", q.Kind, sum, want.After.SumOfLeafPeaksWatts)
	}
	if q.Kind == plan.KindTripBreaker {
		t.child(eval, "capping.step", layerCapping, func() {
			capper, err := capping.New(scratch, capping.Config{SustainSteps: 1})
			if err != nil {
				return
			}
			_, _, _ = capper.Step(peakReader(traces))
		})
	}
}

// peakReader mirrors the runtime's capping view of a trace window.
func peakReader(traces map[string]timeseries.Series) capping.Reader {
	return func(id string) (capping.InstanceState, bool) {
		tr, ok := traces[id]
		if !ok || tr.Len() == 0 {
			return capping.InstanceState{}, false
		}
		p := tr.Peak()
		return capping.InstanceState{Power: p, MinPower: 0.5 * p, Priority: capping.PriorityBackend}, true
	}
}

func (t *tracer) checkPlan(want, got *plan.Result) {
	if t == nil || want == nil || got == nil {
		return
	}
	same := want.After.SumOfLeafPeaksWatts == got.After.SumOfLeafPeaksWatts &&
		want.Before.SumOfLeafPeaksWatts == got.Before.SumOfLeafPeaksWatts &&
		len(want.After.BreakerViolations) == len(got.After.BreakerViolations) &&
		want.Replaced == got.Replaced && want.Moved == got.Moved &&
		want.Admitted == got.Admitted && want.Rejected == got.Rejected &&
		want.Throttles == got.Throttles && want.ShedWatts == got.ShedWatts
	if !same {
		t.mismatch("plan %s answered Σ %v (replaced %d moved %d admitted %d throttles %d), re-enactment Σ %v (%d %d %d %d)",
			got.Kind, got.After.SumOfLeafPeaksWatts, got.Replaced, got.Moved, got.Admitted, got.Throttles,
			want.After.SumOfLeafPeaksWatts, want.Replaced, want.Moved, want.Admitted, want.Throttles)
	}
}
