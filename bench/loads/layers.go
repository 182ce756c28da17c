package loads

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"time"

	"repro/bench/harness"
	"repro/internal/capping"
	"repro/internal/cluster"
	"repro/internal/detmap"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
)

// workCounters maps a per-layer work metric to the smoothop_* counter in
// obs.Default() it is read from. Deltas are taken around the real operations
// only, so the re-enactments' own calls into the same packages do not count.
var workCounters = map[string]string{
	"score.vectors_total":            "smoothop_score_vectors_total",
	"score.batches_total":            "smoothop_score_batches_total",
	"cluster.kmeans_iterations":      "smoothop_cluster_kmeans_iterations_total",
	"cluster.kmeans_restarts":        "smoothop_cluster_kmeans_restarts_total",
	"placement.swaps_attempted":      "smoothop_placement_swaps_attempted_total",
	"placement.swaps_applied":        "smoothop_placement_swaps_applied_total",
	"placement.resync_leaves":        "smoothop_placement_resync_leaves_total",
	"placement.admissions":           "smoothop_placement_admissions_total",
	"placement.admission_rejections": "smoothop_placement_admission_rejections_total",
	"powertree.delta_dirty_leaves":   "smoothop_powertree_delta_dirty_leaves_total",
	"powertree.delta_rebuilds":       "smoothop_powertree_delta_rebuilds_total",
	"plan.snapshots_total":           "smoothop_plan_snapshots_total",
	"plan.queries_total":             "smoothop_plan_queries_total",
	"plan.shed_total":                "smoothop_plan_shed_total",
	"core.online_drops":              "smoothop_runtime_online_drops_total",
	"core.online_resyncs":            "smoothop_runtime_online_resyncs_total",
	"core.frag_full_refreshes":       "smoothop_runtime_frag_full_refreshes_total",
	"core.frag_delta_refreshes":      "smoothop_runtime_frag_delta_refreshes_total",
	"httpapi.errors_total":           "smoothop_http_errors_total",
}

type counters map[string]uint64

func readCounters() counters {
	c := make(counters, len(workCounters))
	for metric, name := range workCounters {
		c[metric] = obs.Default().Counter(name, "").Value()
	}
	return c
}

// allocTally accumulates heap allocation deltas around one kind of real
// operation.
type allocTally struct {
	ops, mallocs, bytes uint64
}

type memMark struct {
	mallocs, bytes uint64
	work           counters
}

func (t *tracer) allocBefore() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mark = memMark{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, work: readCounters()}
}

func (t *tracer) allocAfter(root int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	after := readCounters()
	name := t.rec.NameOf(root)
	tally := t.allocs[name]
	if tally == nil {
		tally = &allocTally{}
		t.allocs[name] = tally
	}
	tally.ops++
	tally.mallocs += ms.Mallocs - t.mark.mallocs
	tally.bytes += ms.TotalAlloc - t.mark.bytes
	for metric, v := range after {
		t.work[metric] += v - t.mark.work[metric]
	}
}

// startPhase and endPhase bracket the timed phase for the run-wide deltas.
func (t *tracer) startPhase() {
	if t == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.pause0 = ms.PauseTotalNs
}

func (t *tracer) endPhase() {
	if t == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.pauseNs = ms.PauseTotalNs - t.pause0
}

// ---- probes ----------------------------------------------------------------------

// timeIt runs fn reps times and returns the median seconds per call.
func timeIt(reps int, fn func()) float64 {
	samples := make([]float64, reps)
	for i := range samples {
		t := time.Now()
		fn()
		samples[i] = time.Since(t).Seconds()
	}
	return harness.Median(samples)
}

// probe measures each layer's unit costs on the workload's final state,
// through the layer's exported functions, on private copies. These are the
// per-layer metrics that exist on every workload: what a call into the layer
// costs at this fleet size, whether or not the workload's traffic makes it.
func (t *tracer) probe(r *run) error {
	s := &t.sh
	e := r.env
	view := s.currentView()
	fn := viewFn(view)
	traceFn := placement.TraceFn(fn)
	tree := s.tree.Clone()
	ids := tree.AllInstances()
	asOf := s.evalAsOf
	put := func(name string, v float64) { t.probes[name] = v }
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// tracestore: append cost and footprint on a scratch store, read cost on
	// the live one.
	sample := e.fleet.Instances
	if len(sample) > 500 {
		sample = sample[:500]
	}
	before := heapAlloc()
	scratch := tracestore.New(tracestore.Config{Step: step, Retention: time.Duration(e.spec.weeks+1) * week, RejectImpulses: true})
	readings := 0
	began := time.Now()
	for _, inst := range sample {
		tr := inst.Trace
		n := int(trainWeeks * week / tr.Step)
		for i := 0; i < n && i < tr.Len(); i++ {
			fail(scratch.Append(inst.ID, tr.TimeAt(i), tr.Values[i]))
			readings++
		}
	}
	put("tracestore.append_ns", float64(time.Since(began).Nanoseconds())/float64(readings))
	if after := heapAlloc(); after > before {
		put("tracestore.bytes_per_reading", float64(after-before)/float64(readings))
	} else {
		put("tracestore.bytes_per_reading", 0)
	}
	runtime.KeepAlive(scratch)
	some := ids
	if len(some) > 1000 {
		some = some[:1000]
	}
	put("tracestore.snapshot_us", 1e6/float64(len(some))*timeIt(3, func() {
		for _, id := range some {
			_, _, err := s.store.SnapshotQuality(id, asOf.Add(-week), asOf)
			fail(err)
		}
	}))
	put("tracestore.avgtrace_us", 1e6/float64(len(some))*timeIt(3, func() {
		for _, id := range some {
			_, _, err := s.store.AveragedITraceQuality(id, asOf, trainWeeks)
			fail(err)
		}
	}))

	// score and cluster: the root-level embedding and clustering Bootstrap
	// starts with.
	byService := make(map[string][]timeseries.Series)
	power := make(map[string]float64)
	series := make([]timeseries.Series, len(ids))
	insts := make([]placement.Instance, len(ids))
	for i, id := range ids {
		series[i] = view[id]
		svc := s.services[id]
		insts[i] = placement.Instance{ID: id, Service: svc}
		byService[svc] = append(byService[svc], view[id])
		power[svc] += view[id].MeanValue()
	}
	names := detmap.SortedKeys(power)
	sort.SliceStable(names, func(i, j int) bool { return power[names[i]] > power[names[j]] })
	if len(names) > 8 {
		names = names[:8]
	}
	basis, err := score.ServiceTraces(names, byService)
	fail(err)
	var points [][]float64
	put("score.vectors_ms", 1e3*timeIt(3, func() {
		points, err = score.VectorsParallel(series, basis, 0)
		fail(err)
	}))
	var busiest *powertree.Node
	for _, leaf := range tree.Leaves() {
		if busiest == nil || len(leaf.Instances) > len(busiest.Instances) {
			busiest = leaf
		}
	}
	if busiest != nil && len(busiest.Instances) > 1 {
		peers := make([]timeseries.Series, 0, len(busiest.Instances)-1)
		for _, id := range busiest.Instances[1:] {
			peers = append(peers, view[id])
		}
		put("score.differential_us", 1e6*timeIt(200, func() {
			_, err := score.Differential(view[busiest.Instances[0]], peers)
			fail(err)
		}))
	} else {
		put("score.differential_us", 0)
	}
	put("cluster.kmeans_ms", 1e3*timeIt(3, func() {
		_, err := cluster.BalancedKMeans(points, cluster.Config{K: 2 * len(tree.Children), Seed: r.opt.Seed, Restarts: 1})
		fail(err)
	}))

	// placement
	put("placement.batch_place_ms", 1e3*timeIt(1, func() {
		fail(placement.WorkloadAware{TopServices: 8, Seed: r.opt.Seed}.Place(e.empty.Clone(), insts, traceFn))
	}))
	put("placement.level_asynchrony_ms", 1e3*timeIt(3, func() {
		_, err := placement.LevelAsynchrony(tree, powertree.RPP, traceFn)
		fail(err)
	}))
	remapOn := tree.Clone()
	put("placement.remap_ms", 1e3*timeIt(1, func() {
		_, err := placement.Remap(remapOn, traceFn, placement.RemapConfig{MaxSwaps: maxSwaps, Policy: s.policyCfg()})
		fail(err)
	}))
	var online *placement.Online
	put("placement.online_build_ms", 1e3*timeIt(3, func() {
		online, err = placement.NewOnline(tree, traceFn, s.policyCfg())
		fail(err)
	}))
	if online != nil && len(ids) > 0 {
		var admit, retire []float64
		for i := 0; i < 20; i++ {
			inst := insts[(i*7919)%len(insts)]
			began := time.Now()
			_, err := online.Retire(inst.ID)
			retire = append(retire, time.Since(began).Seconds())
			fail(err)
			began = time.Now()
			_, err = online.Admit(placement.Instance{ID: inst.ID, Service: inst.Service, Demands: s.demands[inst.ID]})
			admit = append(admit, time.Since(began).Seconds())
			fail(err)
		}
		put("placement.online_admit_us", 1e6*harness.Median(admit))
		put("placement.online_retire_us", 1e6*harness.Median(retire))
	}

	// powertree and metrics
	tree = s.tree.Clone() // the admit/retire probe reordered residents
	var aggs *powertree.Aggregates
	put("powertree.aggregate_all_ms", 1e3*timeIt(3, func() {
		aggs, err = tree.AggregateAllParallel(fn, 0)
		fail(err)
	}))
	agg, err := powertree.NewAggregator(tree, fn)
	fail(err)
	if agg != nil {
		leaves := tree.Leaves()
		i := 0
		put("powertree.delta_update_us", 1e6*timeIt(50, func() {
			fail(agg.MarkDirty(leaves[i%len(leaves)]))
			_, err := agg.Update()
			fail(err)
			i++
		}))
	}
	put("powertree.clone_ms", 1e3*timeIt(5, func() { _ = tree.Clone() }))
	var encoded bytes.Buffer
	put("powertree.tree_encode_ms", 1e3*timeIt(3, func() {
		encoded.Reset()
		fail(tree.Save(&encoded))
	}))
	put("powertree.tree_bytes", float64(encoded.Len()))
	if aggs != nil {
		put("metrics.frag_rates_us", 1e6*timeIt(20, func() {
			_, err := metrics.FragmentationRatesFrom(tree, aggs)
			fail(err)
		}))
	}
	put("metrics.multi_frag_ms", 1e3*timeIt(3, func() {
		_, err := metrics.MultiFragmentationRates(tree, fn, s.policyCfg().Demands)
		fail(err)
	}))

	// plan and capping: one capture, then each query kind evaluated straight
	// on the snapshot under the service's default deadline. replace_service
	// re-places the fleet's smallest service, so the probe stays bounded at
	// sizes where a large service overruns the deadline.
	var snap *plan.Snapshot
	put("plan.snapshot_capture_ms", 1e3*timeIt(3, func() {
		snap, err = plan.NewSnapshot(tree, view, s.services, asOf, step)
		fail(err)
	}))
	if snap != nil && len(ids) > 0 {
		count := make(map[string]int)
		for _, id := range ids {
			count[s.services[id]]++
		}
		smallest := ""
		for _, svc := range detmap.SortedKeys(count) {
			if smallest == "" || count[svc] < count[smallest] {
				smallest = svc
			}
		}
		eval := func(q plan.Query, reps int) float64 {
			return 1e3 * timeIt(reps, func() {
				ctx, cancel := context.WithTimeout(context.Background(), plan.DefaultDeadline)
				defer cancel()
				if _, err := snap.Evaluate(ctx, q, 0); err != nil && ctx.Err() == nil {
					fail(err)
				}
			})
		}
		_ = eval(plan.Query{Kind: plan.KindTripBreaker, Node: tree.Leaves()[0].Name}, 1) // pays the shared "before" report
		put("plan.eval_trip_ms", eval(plan.Query{Kind: plan.KindTripBreaker, Node: tree.Leaves()[0].Parent().Name, BudgetFraction: 0.5}, 3))
		put("plan.eval_add_ms", eval(plan.Query{Kind: plan.KindAddInstances, Archetype: smallest, Count: 16}, 3))
		put("plan.eval_replace_ms", eval(plan.Query{Kind: plan.KindReplaceService, Service: smallest}, 1))
	}
	put("capping.step_us", 1e6*timeIt(5, func() {
		capper, err := capping.New(tree, capping.Config{SustainSteps: 1})
		fail(err)
		if capper != nil {
			_, _, err = capper.Step(peakReader(view))
			fail(err)
		}
	}))
	return firstErr
}

// ---- per-layer metric assembly ---------------------------------------------------

// probeMetrics lists the probe-measured metrics with their units; a probe
// that could not run on a workload reports 0.
var probeMetrics = []harness.Metric{
	{Name: "tracestore.append_ns", Unit: "ns"}, {Name: "tracestore.bytes_per_reading", Unit: "B"},
	{Name: "tracestore.snapshot_us", Unit: "us"}, {Name: "tracestore.avgtrace_us", Unit: "us"},
	{Name: "score.vectors_ms", Unit: "ms"}, {Name: "score.differential_us", Unit: "us"},
	{Name: "cluster.kmeans_ms", Unit: "ms"},
	{Name: "placement.batch_place_ms", Unit: "ms"}, {Name: "placement.level_asynchrony_ms", Unit: "ms"},
	{Name: "placement.remap_ms", Unit: "ms"}, {Name: "placement.online_build_ms", Unit: "ms"},
	{Name: "placement.online_admit_us", Unit: "us"}, {Name: "placement.online_retire_us", Unit: "us"},
	{Name: "powertree.aggregate_all_ms", Unit: "ms"}, {Name: "powertree.delta_update_us", Unit: "us"},
	{Name: "powertree.clone_ms", Unit: "ms"}, {Name: "powertree.tree_encode_ms", Unit: "ms"},
	{Name: "powertree.tree_bytes", Unit: "B"},
	{Name: "metrics.frag_rates_us", Unit: "us"}, {Name: "metrics.multi_frag_ms", Unit: "ms"},
	{Name: "plan.snapshot_capture_ms", Unit: "ms"}, {Name: "plan.eval_trip_ms", Unit: "ms"},
	{Name: "plan.eval_add_ms", Unit: "ms"}, {Name: "plan.eval_replace_ms", Unit: "ms"},
	{Name: "capping.step_us", Unit: "us"},
}

// metrics fills in every per-layer metric of a traced run.
func (t *tracer) metrics(r *run, out map[string]harness.Value) {
	put := func(name, unit string, v float64) { out[name] = harness.Value{Value: v, Unit: unit} }
	for _, m := range probeMetrics {
		put(m.Name, m.Unit, t.probes[m.Name])
	}

	// Work done, counted by the program's own counters around the real
	// operations.
	for _, metric := range detmap.SortedKeys(workCounters) {
		put(metric, "count", float64(t.work[metric]))
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	put("placement.swap_yield", "ratio", ratio(float64(t.work["placement.swaps_applied"]), float64(t.work["placement.swaps_attempted"])))
	put("plan.snapshot_reuse_ratio", "ratio", 0)
	if q := float64(t.work["plan.queries_total"]); q > 0 {
		put("plan.snapshot_reuse_ratio", "ratio", 1-float64(t.work["plan.snapshots_total"])/q)
	}
	put("plan.deadline_exceeded_total", "count", float64(r.deadlineExceeded))
	put("placement.reject_pct", "%", 100*ratio(float64(r.rejected), float64(r.offered)))

	// Where the time went: self time by layer over every traced operation.
	spans := t.rec.Spans()
	self, overrun := harness.SelfTimes(spans)
	byLayer := make(map[string]float64)
	rootSelf := make(map[string][]float64) // root span name → self times, ms
	rootDur := make(map[string][]float64)
	var rebuilds []float64
	for i, sp := range spans {
		byLayer[sp.Layer] += self[i].Seconds()
		if sp.Parent < 0 {
			rootSelf[sp.Name] = append(rootSelf[sp.Name], 1e3*self[i].Seconds())
			rootDur[sp.Name] = append(rootDur[sp.Name], 1e3*sp.Duration().Seconds())
			if t.rebuildOps[i] {
				rebuilds = append(rebuilds, 1e3*sp.Duration().Seconds())
			}
		}
	}
	// An HTTP-rooted admission's remainder is the HTTP hop plus the runtime's
	// own work; the direct twin measures the latter, so move that much from
	// httpapi to core.
	coreAdmit := harness.Median(rootSelf["admit_direct"])
	for _, ms := range rootSelf["admit"] {
		move := coreAdmit
		if ms < move {
			move = ms
		}
		byLayer[layerHTTP] -= move / 1e3
		byLayer[layerCore] += move / 1e3
	}
	total := 0.0
	for _, l := range layers {
		total += byLayer[l]
	}
	for _, l := range layers {
		put("share."+l+"_pct", "%", 100*ratio(byLayer[l], total))
	}
	put("core.tick_self_ms", "ms", harness.Median(rootSelf["tick"]))
	put("core.admit_self_us", "us", 1e3*coreAdmit)
	put("core.bootstrap_self_ms", "ms", harness.Median(rootSelf["bootstrap"]))
	put("core.view_rebuild_ms", "ms", harness.Median(rebuilds))

	// Latencies the end-to-end set leaves out: tails, the secondary
	// operation kinds, and the HTTP hop by difference of medians.
	p := func(kind string, pct float64) float64 { return harness.SegmentPercentile(r.lat[kind], pct) }
	put("core.tick_p50_ms", "ms", p("tick", 50))
	put("core.tick_p90_ms", "ms", p("tick", 90))
	put("core.admit_p50_ms", "ms", p("admit", 50))
	put("core.admit_p99_ms", "ms", p("admit", 99))
	put("core.retire_p50_us", "us", 1e3*p("retire", 50))
	put("core.bootstrap_s", "s", harness.Median(r.lat["bootstrap"])/1e3)
	put("core.ingest_mreadings_per_s", "M/s", harness.Median(r.readings))
	put("plan.trip_p50_ms", "ms", p("plan_trip", 50))
	put("plan.add_p50_ms", "ms", p("plan_add", 50))
	put("plan.replace_p50_ms", "ms", p("plan_replace", 50))
	put("plan.cold_p50_ms", "ms", p("plan_cold", 50))
	overhead := func(kind string) float64 {
		if len(r.lat[kind]) == 0 || len(r.lat[kind+"_direct"]) == 0 {
			return 0
		}
		return 1e3 * (p(kind, 50) - p(kind+"_direct", 50))
	}
	put("httpapi.admit_overhead_us", "us", overhead("admit"))
	put("httpapi.plan_overhead_us", "us", overhead("plan_trip"))
	put("httpapi.frag_get_p50_ms", "ms", p("frag_get", 50))
	put("httpapi.tree_get_p50_ms", "ms", p("tree_get", 50))

	// Allocation behaviour around the real operations.
	per := func(kinds []string, pick func(*allocTally) uint64) float64 {
		var ops, sum uint64
		for _, k := range kinds {
			if a := t.allocs[k]; a != nil {
				ops += a.ops
				sum += pick(a)
			}
		}
		return ratio(float64(sum), float64(ops))
	}
	admits := []string{"admit", "admit_direct"}
	put("go.allocs_per_admit", "count", per(admits, func(a *allocTally) uint64 { return a.mallocs }))
	put("go.bytes_per_admit", "B", per(admits, func(a *allocTally) uint64 { return a.bytes }))
	put("go.allocs_per_tick", "count", per([]string{"tick"}, func(a *allocTally) uint64 { return a.mallocs }))
	put("go.gc_pause_ms", "ms", float64(t.pauseNs)/1e6)

	// The traced run's own end-to-end readings, so the tracing overhead is
	// the difference to the untraced run of the same seed.
	speed := referenceNominalUs / r.phaseRefUs
	put("traced.op_p50_ms", "ms", p(r.headline, 50)*speed)
	put("traced.ops_per_s", "1/s", r.opsPerSecond()/speed)
	put("host.ref_kernel_us", "us", r.phaseRefUs)
	put("trace.spans", "count", float64(len(spans)))
	put("trace.overrun_spans", "count", float64(overrun))
	put("trace.mismatches", "count", float64(t.nMismatch))
}
