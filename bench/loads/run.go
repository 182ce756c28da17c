package loads

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/bench/harness"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// Options are the arguments of one run.
type Options struct {
	// Seed feeds fleet generation, the arrival shuffle and the demand draw.
	Seed int64
	// Seconds is how long the timed phase measures. The operation sequence
	// is fixed by the seed; Seconds only decides how far along it the run
	// gets, and every run goes at least as far as the workload's checkpoint.
	Seconds float64
	// Small selects the smoke size (≈200 instances) instead of the full one.
	Small bool
	// Traced turns on the re-enactment spans and the layer probes.
	Traced bool
}

// setups is how often set-up is repeated; setup_s is the median.
const setups = 3

// meter measures throughput over rounds of identical composition, so that
// the rate does not depend on where in a round the deadline fell.
type meter struct {
	roundStart time.Time
	roundOps   float64
	ops, wall  float64 // over complete rounds
	allOps     float64
	first      time.Time
	last       time.Time
}

func (m *meter) begin(now time.Time) { m.roundStart, m.first, m.last = now, now, now }

func (m *meter) add(n float64, now time.Time) {
	if m.roundStart.IsZero() {
		return // not begun: the operation belongs to an unmetered phase
	}
	m.roundOps += n
	m.allOps += n
	m.last = now
}

func (m *meter) endRound(now time.Time) {
	m.ops += m.roundOps
	m.wall += now.Sub(m.roundStart).Seconds()
	m.roundStart, m.roundOps = now, 0
}

// rate is operations per second over the complete rounds, or over
// everything when no round completed.
func (m *meter) rate() float64 {
	if m.wall > 0 {
		return m.ops / m.wall
	}
	if w := m.last.Sub(m.first).Seconds(); w > 0 {
		return m.allOps / w
	}
	return 0
}

// reference is a harness-owned memory-bound kernel timed alongside the
// operations: scatter-adding power-trace-sized vectors out of a working set
// larger than the cache, which is what the program's own hot loops do. The
// hosts this benchmark runs on are shared; their memory system slows by
// 10–30 % for seconds to minutes at a time when neighbours get busy, and that
// moves every wall-clock number of a run by the same factor. Timing the same
// fixed kernel in the same run measures the factor, and the end-to-end
// timings are reported at the kernel's nominal speed: raw × nominal ÷
// measured. The kernel shares no code with the program, so a change to the
// program moves the operations and not the reference.
type reference struct {
	data [][]float64
	mu   sync.Mutex
	next uint64
	us   []float64 // kernel timings, microseconds
}

const (
	// referenceNominalUs is the kernel's time on this benchmark's reference
	// host when nothing else contends for memory.
	referenceNominalUs = 150.0
	referenceVectors   = 8000
	referenceLen       = 336
	referenceAdds      = 128
)

func newReference() *reference {
	ref := &reference{data: make([][]float64, referenceVectors)}
	for i := range ref.data {
		ref.data[i] = make([]float64, referenceLen)
		for j := range ref.data[i] {
			ref.data[i][j] = float64(i^j) + 0.5
		}
	}
	return ref
}

// sample times the kernel once.
func (ref *reference) sample() {
	ref.mu.Lock()
	seed := ref.next
	ref.next += referenceAdds
	ref.mu.Unlock()
	var acc [referenceLen]float64
	t := time.Now()
	for k := uint64(0); k < referenceAdds; k++ {
		// A fixed odd multiplier walks the vectors in a scattered order.
		v := ref.data[(seed+k)*2654435761%referenceVectors]
		for j, x := range v {
			acc[j] += x
		}
	}
	took := float64(time.Since(t)) / float64(time.Microsecond)
	ref.mu.Lock()
	if acc[0] >= 0 { // keeps the adds observable
		ref.us = append(ref.us, took)
	}
	ref.mu.Unlock()
}

// drain returns the median kernel time since the last drain, and forgets
// the samples; the nominal time if there were none.
func (ref *reference) drain() float64 {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	med := harness.Median(ref.us)
	ref.us = nil
	if med == 0 {
		return referenceNominalUs
	}
	return med
}

// checkpoint is the state captured at the workload's fixed operation index:
// everything in it is a function of the seed alone, never of how fast the
// machine ran.
type checkpoint struct {
	sumLeafPeaks float64
	placedPct    float64
	heapPerInst  float64
	digest       string
}

// run is the state of one workload run.
type run struct {
	name string
	opt  Options
	rng  *rand.Rand
	env  *env
	tr   *tracer

	setupS   []float64
	deadline time.Time
	// ref is the reference kernel; setupRefUs and phaseRefUs are its median
	// times during set-up and during the timed phase, sinceRef the operation
	// time accumulated since it last ran.
	ref        *reference
	setupRefUs float64
	phaseRefUs float64
	sinceRef   time.Duration

	mu         sync.Mutex // guards the tallies below when two clients run
	attempted  int
	succeeded  int
	rejected   int
	failed     int
	failures   []string
	violations []string
	// deadlineExceeded counts 503 deadline_exceeded answers among the failures.
	deadlineExceeded int
	lat              map[string][]float64 // milliseconds, in arrival order

	// ledger of what the harness asked for, to check the tree against;
	// demands holds every instance's declared demand vector (none on the
	// power-only workloads), placed or not.
	residents map[string]bool
	demands   map[string]powertree.ResourceVector
	offered   int // instances offered to Bootstrap or admission
	placed    int // of those, accepted

	meters []*meter
	// readings are the history-ingest rates seen, in 10⁶ readings per second.
	readings []float64
	cp       *checkpoint
	// quiesce lets the checkpoint wait out the second client's query in
	// flight: queries hold it shared, the checkpoint exclusively.
	quiesce sync.RWMutex
	// lastAsOf is the runtime's clock: the time of its latest Bootstrap or
	// Tick.
	lastAsOf time.Time
	// headline names the latency kind reported as op_p50_ms.
	headline string
}

// expired reports whether the timed phase has used up its seconds.
func (r *run) expired() bool { return !time.Now().Before(r.deadline) }

// setup runs build `setups` times, timing each; the last system built is
// the one the run measures.
func (r *run) setup(build func() (*env, error)) error {
	for i := 0; i < setups; i++ {
		if r.env != nil {
			r.env.close()
			r.env = nil
		}
		t := time.Now()
		e, err := build()
		if err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(t).Seconds())
		r.env = e
	}
	r.setupRefUs = r.ref.drain()
	return nil
}

// pace runs the reference kernel a few times between two stages of set-up,
// so set-up's speed factor is sampled across it like the timed phase's.
func (r *run) pace() {
	for k := 0; k < 8; k++ {
		r.ref.sample()
	}
}

// startClock opens the timed phase.
func (r *run) startClock() {
	r.tr.startPhase()
	r.ref.drain()
	r.deadline = time.Now().Add(time.Duration(r.opt.Seconds * float64(time.Second)))
}

// stopClock closes the timed phase: the reference kernel's median over it
// becomes the run's speed factor.
func (r *run) stopClock() {
	r.tr.endPhase()
	r.phaseRefUs = r.ref.drain()
}

// refEvery is how much operation time passes between two runs of the
// reference kernel: about 1.5 % of the timed phase goes to it.
const refEvery = 10 * time.Millisecond

func (r *run) observe(kind string, d time.Duration) {
	r.mu.Lock()
	r.lat[kind] = append(r.lat[kind], float64(d)/float64(time.Millisecond))
	r.sinceRef += d
	due := int(r.sinceRef / refEvery)
	if due > 0 {
		r.sinceRef = 0
	}
	r.mu.Unlock()
	if due > 8 {
		due = 8 // a long operation is followed by a few samples, not hundreds
	}
	for ; due > 0; due-- {
		r.ref.sample()
	}
}

// outcome classes of one operation
const (
	ok = iota
	refused
	failedOp
)

func (r *run) count(class int, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	switch class {
	case ok:
		r.succeeded++
	case refused:
		r.rejected++
	default:
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, why)
		}
	}
}

// ---- operations -----------------------------------------------------------

// ingestDay streams day d's readings in; it is one operation.
func (r *run) ingestDay(d int) (readings int, took time.Duration) {
	e := r.env
	// Ingest is the store's work end to end, so the whole operation is a
	// tracestore span; there is nothing to re-enact.
	root := r.tr.beginOp("ingest_day", layerStore)
	r.tr.restart(root)
	t := time.Now()
	n, err := e.ingest(e.dayEnd(d).Add(-day), e.dayEnd(d))
	took = time.Since(t)
	r.tr.endOp(root)
	if err != nil {
		r.count(failedOp, err.Error())
		return n, took
	}
	r.count(ok, "")
	r.observe("ingest_day", took)
	return n, took
}

// tick runs the drift monitor at the end of day d over a one-week window.
func (r *run) tick(d int) *core.DriftReport {
	asOf := r.env.dayEnd(d)
	root := r.tr.beginOp("tick", layerCore)
	want := r.tr.tick(root, asOf)
	r.tr.restart(root)
	t := time.Now()
	rep, err := r.env.rt.Tick(asOf, week)
	took := time.Since(t)
	r.tr.endOp(root)
	if err != nil {
		r.count(failedOp, "tick: "+err.Error())
		return nil
	}
	r.count(ok, "")
	r.observe("tick", took)
	r.lastAsOf = asOf
	r.tr.checkTick(want, rep)
	return rep
}

// admitBody is the POST /v1/instances request.
type admitBody struct {
	ID      string                   `json:"id"`
	Service string                   `json:"service"`
	Demands powertree.ResourceVector `json:"demands,omitempty"`
}

// admit offers one instance for admission: over HTTP, or — on a traced run,
// for every other admission — straight through Runtime.Admit so the HTTP
// hop's cost can be told from the runtime's. It reports whether the
// instance was placed.
func (r *run) admit(m *workload.Instance) bool {
	demand := r.demands[m.ID]
	direct := r.tr.alternate("admit")
	kind, layer := "admit", layerHTTP
	if direct {
		kind, layer = "admit_direct", layerCore
	}
	root := r.tr.beginOp(kind, layer)
	want := r.tr.admit(root, m, demand)
	r.tr.restart(root)

	var leaf string
	class, why := ok, ""
	t := time.Now()
	if direct {
		var err error
		leaf, err = r.env.rt.Admit(core.AdmitRequest{ID: m.ID, Service: m.Service, Demands: demand})
		switch {
		case errors.Is(err, placement.ErrNoCapacity):
			class = refused
		case err != nil:
			class, why = failedOp, "admit "+m.ID+": "+err.Error()
		}
	} else {
		rep, err := r.env.call(http.MethodPost, "/v1/instances", admitBody{ID: m.ID, Service: m.Service, Demands: demand})
		switch {
		case err != nil:
			class, why = failedOp, err.Error()
		case rep.status == http.StatusCreated:
			leaf = leafOf(rep.body)
		case rep.status == http.StatusConflict && rep.errorCode() == "no_capacity":
			class = refused
		default:
			class, why = failedOp, fmt.Sprintf("POST /v1/instances %s: %d %s", m.ID, rep.status, rep.errorCode())
		}
	}
	took := time.Since(t)
	r.tr.endOp(root)
	r.count(class, why)
	if class == failedOp {
		return false
	}
	r.observe(kind, took)
	r.offered++
	r.tr.checkLeaf(want, leaf, class == refused)
	if class == refused {
		return false
	}
	r.placed++
	r.residents[m.ID] = true
	return true
}

// leafOf reads the hosting leaf out of an admission or retirement answer.
func leafOf(body []byte) string {
	var v struct {
		Leaf string `json:"leaf"`
	}
	_ = json.Unmarshal(body, &v) // a malformed body reads as no leaf, which the callers' checks catch
	return v.Leaf
}

// retire removes a resident over HTTP.
func (r *run) retire(id string) {
	root := r.tr.beginOp("retire", layerHTTP)
	want := r.tr.retire(root, id)
	r.tr.restart(root)
	t := time.Now()
	rep, err := r.env.call(http.MethodDelete, "/v1/instances/"+id, nil)
	took := time.Since(t)
	r.tr.endOp(root)
	switch {
	case err != nil:
		r.count(failedOp, err.Error())
	case rep.status != http.StatusOK:
		r.count(failedOp, fmt.Sprintf("DELETE /v1/instances/%s: %d %s", id, rep.status, rep.errorCode()))
	default:
		r.count(ok, "")
		r.observe("retire", took)
		delete(r.residents, id)
		r.tr.checkLeaf(want, leafOf(rep.body), false)
	}
}

// get fetches a read-only route; kind names the latency series.
func (r *run) get(kind, path string) {
	root := r.tr.beginOp(kind, layerHTTP)
	want := r.tr.get(root, kind)
	r.tr.restart(root)
	t := time.Now()
	rep, err := r.env.call(http.MethodGet, path, nil)
	took := time.Since(t)
	r.tr.endOp(root)
	switch {
	case err != nil:
		r.count(failedOp, err.Error())
	case rep.status != http.StatusOK:
		r.count(failedOp, fmt.Sprintf("GET %s: %d %s", path, rep.status, rep.errorCode()))
	default:
		r.count(ok, "")
		r.observe(kind, took)
		r.tr.checkGet(want, kind, rep.body)
	}
}

func (r *run) fragGet() { r.get("frag_get", "/v1/fragmentation") }
func (r *run) treeGet() { r.get("tree_get", "/v1/tree") }

// planKinds names the latency series of each query kind.
var planKinds = map[string]string{
	plan.KindTripBreaker:    "plan_trip",
	plan.KindAddInstances:   "plan_add",
	plan.KindReplaceService: "plan_replace",
}

// planQuery asks one what-if question; kind is the latency series it feeds
// (plan_trip, plan_add, plan_replace). cold marks the first query after a
// placement mutation, which pays the snapshot recapture.
func (r *run) planQuery(q plan.Query, cold bool) {
	r.quiesce.RLock()
	defer r.quiesce.RUnlock()
	kind := planKinds[q.Kind]
	direct := r.tr.alternate("plan")
	layer := layerHTTP
	if direct {
		layer = layerPlan
	}
	root := r.tr.beginOp(kind, layer)
	want := r.tr.plan(root, q)
	r.tr.restart(root)
	var res *plan.Result
	class, why := ok, ""
	t := time.Now()
	if direct {
		var err error
		res, err = r.env.planner.Evaluate(context.Background(), q)
		if err != nil {
			class, why = failedOp, "plan "+q.Kind+": "+err.Error()
		}
	} else {
		rep, err := r.env.call(http.MethodPost, "/v1/plan", q)
		switch {
		case err != nil:
			class, why = failedOp, err.Error()
		case rep.status != http.StatusOK:
			class, why = failedOp, fmt.Sprintf("POST /v1/plan %s: %d %s", q.Kind, rep.status, rep.errorCode())
			if rep.errorCode() == "deadline_exceeded" {
				r.mu.Lock()
				r.deadlineExceeded++
				r.mu.Unlock()
			}
		default:
			res = r.tr.decodePlan(rep.body)
		}
	}
	took := time.Since(t)
	r.tr.endOp(root)
	r.count(class, why)
	if class != ok {
		return
	}
	if direct {
		kind += "_direct"
	}
	r.observe(kind, took)
	if cold {
		r.observe("plan_cold", took)
	}
	r.tr.checkPlan(want, res)
}

// ---- checkpoint and output checks ------------------------------------------

// takeCheckpoint captures the seed-determined state. It waits for the other
// client's operation in flight, if any, and holds new ones back, so the
// footprint is the system's at rest.
func (r *run) takeCheckpoint() {
	r.quiesce.Lock()
	defer r.quiesce.Unlock()
	tree := r.env.rt.Tree()
	fn := powertree.PowerFn(workload.SubPowerFn(r.env.evalTraces))
	sum, err := tree.SumOfPeaks(powertree.RPP, fn)
	if err != nil {
		r.violations = append(r.violations, "checkpoint Σ leaf peaks: "+err.Error())
	}
	cp := &checkpoint{sumLeafPeaks: sum, digest: placementDigest(tree)}
	if r.offered > 0 {
		cp.placedPct = 100 * float64(r.placed) / float64(r.offered)
	}
	if n := tree.InstanceCount(); n > 0 {
		if h := heapAlloc(); h > r.env.heapBase {
			cp.heapPerInst = float64(h-r.env.heapBase) / float64(n)
		}
	}
	r.cp = cp
}

// placementDigest is FNV-1a over the sorted leaf→ids listing.
func placementDigest(tree *powertree.Node) string {
	h := fnv.New64a()
	leaves := tree.Leaves()
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Name < leaves[j].Name })
	for _, leaf := range leaves {
		ids := append([]string(nil), leaf.Instances...)
		sort.Strings(ids)
		fmt.Fprintf(h, "%s=%s;", leaf.Name, strings.Join(ids, ","))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// verify runs the output checks on the final state.
func (r *run) verify() {
	tree := r.env.rt.Tree()
	seen := make(map[string]bool)
	for _, id := range tree.AllInstances() {
		if seen[id] {
			r.violations = append(r.violations, "instance hosted twice: "+id)
		}
		seen[id] = true
		if !r.residents[id] {
			r.violations = append(r.violations, "tree hosts an instance the ledger does not: "+id)
		}
	}
	if len(seen) != len(r.residents) {
		r.violations = append(r.violations, fmt.Sprintf("tree hosts %d instances, ledger (bootstrapped + admitted − retired) says %d", len(seen), len(r.residents)))
	}
	if len(r.env.spec.caps) == 0 {
		// Breakers are judged on the telemetry the runtime itself last placed
		// by: the averaged I-traces at its clock. Residents admitted under an
		// earlier window were checked against that window, so a leaf packed to
		// the brim then may read a hair over now; beyond 2 % of the budget it
		// is a real overload.
		view := make(map[string]timeseries.Series, len(seen))
		for _, id := range tree.AllInstances() {
			tr, _, err := r.env.store.AveragedITraceQuality(id, r.lastAsOf, trainWeeks)
			if err != nil {
				r.violations = append(r.violations, "breaker check trace: "+err.Error())
				break
			}
			view[id] = tr
		}
		trips, err := tree.CheckBreakers(powertree.PowerFn(workload.SubPowerFn(view)), 2*step)
		if err != nil {
			r.violations = append(r.violations, "breaker check: "+err.Error())
		}
		for _, trip := range trips {
			if node := tree.Find(trip.Node); node != nil && trip.PeakOverdraw > 0.02*node.Budget {
				r.violations = append(r.violations, fmt.Sprintf("breaker trip on a power-only workload: %s over budget by %.0f W", trip.Node, trip.PeakOverdraw))
			}
		}
	} else {
		r.violations = append(r.violations, overCapacity(tree, r.demands)...)
	}
	if n := r.tr.mismatches(); n > 0 {
		r.violations = append(r.violations, fmt.Sprintf("traced run invalid: %d re-enactments diverged from the real operation, first: %s", n, r.tr.firstMismatch))
	}
}

// overCapacity lists the nodes whose residents' declared demands exceed a
// declared capacity.
func overCapacity(tree *powertree.Node, demands map[string]powertree.ResourceVector) []string {
	var out []string
	var used func(n *powertree.Node) powertree.ResourceVector
	used = func(n *powertree.Node) powertree.ResourceVector {
		u := powertree.ResourceVector{}
		for _, id := range n.Instances {
			u.AddInPlace(demands[id])
		}
		for _, c := range n.Children {
			u.AddInPlace(used(c))
		}
		for _, dim := range n.Capacities.Dimensions() {
			if u.Get(dim) > n.Capacities.Get(dim)+1e-9 {
				out = append(out, fmt.Sprintf("%s exceeds its %s capacity: %.2f > %.2f", n.Name, dim, u.Get(dim), n.Capacities.Get(dim)))
			}
		}
		return u
	}
	used(tree)
	return out
}

// ---- result ------------------------------------------------------------------

// result assembles the run's metrics: the end-to-end set for an untraced
// run, the per-layer set for a traced one.
func (r *run) result() *harness.Run {
	out := &harness.Run{
		Workload: r.name, Seed: r.opt.Seed, Size: sizeName(r.opt.Small), Traced: r.opt.Traced,
		Seconds: r.opt.Seconds, Meta: harness.CurrentMeta(),
		Attempted: r.attempted, Succeeded: r.succeeded, Rejected: r.rejected, Failed: r.failed,
		Samples: len(r.lat[r.headline]), Violations: r.violations,
		RefSetupUs: r.setupRefUs, RefPhaseUs: r.phaseRefUs, RefNominalUs: referenceNominalUs,
		Metrics: make(map[string]harness.Value),
	}
	if r.cp != nil {
		out.Digest = r.cp.digest
	}
	if r.opt.Traced {
		r.tr.metrics(r, out.Metrics)
		return out
	}
	out.Metrics = r.endToEnd()
	return out
}

func (r *run) opsPerSecond() float64 {
	total := 0.0
	for _, m := range r.meters {
		total += m.rate()
	}
	return total
}

func (r *run) endToEnd() map[string]harness.Value {
	cp := r.cp
	if cp == nil {
		cp = &checkpoint{}
	}
	// Timings are reported at the reference kernel's nominal speed (see
	// reference): a host slowed by its neighbours slows the kernel too.
	setupSpeed := referenceNominalUs / r.setupRefUs
	speed := referenceNominalUs / r.phaseRefUs
	return map[string]harness.Value{
		"setup_s":                 {Value: harness.Median(r.setupS) * setupSpeed, Unit: "s"},
		"op_p50_ms":               {Value: harness.SegmentPercentile(r.lat[r.headline], 50) * speed, Unit: "ms"},
		"ops_per_s":               {Value: r.opsPerSecond() / speed, Unit: "1/s"},
		"frag_get_p50_ms":         {Value: harness.SegmentPercentile(r.lat["frag_get"], 50) * speed, Unit: "ms"},
		"heap_bytes_per_instance": {Value: cp.heapPerInst, Unit: "B"},
		"sum_leaf_peaks_w":        {Value: cp.sumLeafPeaks, Unit: "W"},
		"placed_pct":              {Value: cp.placedPct, Unit: "%"},
	}
}

func sizeName(small bool) string {
	if small {
		return "smoke"
	}
	return "full"
}

// Workload is one named traffic mix.
type Workload struct {
	Name string
	Why  string
	run  func(r *run) error
}

// Workloads lists the four workloads in the order later issues refer to.
var Workloads = []Workload{
	{"replay_10k", "cold path: history ingest, Bootstrap and daily drift ticks; tracestore, score, cluster, batch placement and Remap do the work, placement.Online none", runReplay},
	{"admit_churn_10k", "scheduler write path over HTTP: admissions and retirements with reads beside them; placement.Online, score.Differential and powertree deltas dominate, cluster idles", runAdmitChurn},
	{"admit_multires_2k", "same admission layers with gpu/net capacities and FARB, driven past capacity: the only workload with refusals, so a packing regression shows in placed_pct", runAdmitMultires},
	{"plan_mix_2k", "read-mostly concurrent /v1/plan deck with periodic mutations: plan snapshots, capping and Online-inside-plan work while tracestore and cluster idle", runPlanMix},
}

// Run executes one workload and returns its result and, for a traced run,
// the spans it recorded.
func Run(name string, opt Options) (*harness.Run, []harness.Span, error) {
	for _, w := range Workloads {
		if w.Name != name {
			continue
		}
		r := &run{
			name: name, opt: opt,
			rng:       rand.New(rand.NewSource(opt.Seed)),
			ref:       newReference(),
			lat:       make(map[string][]float64),
			residents: make(map[string]bool),
			demands:   make(map[string]powertree.ResourceVector),
		}
		if opt.Traced {
			r.tr = newTracer()
		}
		err := w.run(r)
		if r.env != nil {
			defer r.env.close()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("loads: %s: %w", name, err)
		}
		r.verify()
		if opt.Traced {
			if err := r.tr.probe(r); err != nil {
				return nil, nil, fmt.Errorf("loads: %s probes: %w", name, err)
			}
		}
		res := r.result()
		for _, f := range r.failures {
			res.Violations = append(res.Violations, "failed operation: "+f)
		}
		return res, r.tr.spans(), nil
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return nil, nil, fmt.Errorf("loads: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// bootstrap places members through Runtime.Bootstrap and records them in
// the ledger. Set-up bootstraps untraced (the shadow attaches afterwards);
// replay_10k's timed Bootstrap is re-enacted like any other operation.
func (r *run) bootstrap(members []*workload.Instance, traced bool) (time.Duration, error) {
	insts := instances(members, r.demands)
	tr := r.tr
	if !traced {
		tr = nil
	}
	root := tr.beginOp("bootstrap", layerCore)
	want := tr.bootstrap(root, r.env, r.opt.Seed, insts)
	tr.restart(root)
	t := time.Now()
	err := r.env.rt.Bootstrap(insts, r.env.trainEnd, trainWeeks)
	took := time.Since(t)
	tr.endOp(root)
	if err != nil {
		return took, fmt.Errorf("bootstrap: %w", err)
	}
	for _, m := range members {
		r.residents[m.ID] = true
	}
	r.lastAsOf = r.env.trainEnd
	r.offered += len(members)
	r.placed += len(members)
	tr.checkBootstrap(want, r.env.rt.Tree())
	return took, nil
}
