package placement

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// benchFixture builds a mid-size fleet + tree once per benchmark.
func benchFixture(b *testing.B) ([]Instance, TraceFn, *powertree.Node) {
	b.Helper()
	spec := workload.GenSpec{
		Mix: map[string]int{
			"frontend": 48, "cache": 32, "dbA": 32, "hadoop": 32, "labserver": 16,
		},
		Start: time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC),
		Step:  time.Hour, Weeks: 1,
		PhaseJitterHours: 2, AmplitudeSigma: 0.2, NoiseSigma: 0.01, Seed: 7,
	}
	fleet, err := workload.Generate(spec, workload.StandardProfiles())
	if err != nil {
		b.Fatal(err)
	}
	instances := make([]Instance, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		instances[i] = Instance{ID: inst.ID, Service: inst.Service}
	}
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "b", SuitesPerDC: 2, MSBsPerSuite: 2, SBsPerMSB: 2, RPPsPerSB: 2,
		LeafBudget: 16 * 310,
	})
	if err != nil {
		b.Fatal(err)
	}
	return instances, TraceFn(fleet.PowerFn()), tree
}

func benchPlacer(b *testing.B, placer Placer) {
	instances, traces, tree := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tree.Clone()
		if err := placer.Place(tr, instances, traces); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObliviousPlace(b *testing.B) { benchPlacer(b, Oblivious{}) }
func BenchmarkRandomPlace(b *testing.B)    { benchPlacer(b, Random{Seed: 1}) }
func BenchmarkWorkloadAware(b *testing.B)  { benchPlacer(b, WorkloadAware{TopServices: 5, Seed: 1}) }
func BenchmarkWorkloadAwareIToI(b *testing.B) {
	benchPlacer(b, WorkloadAware{Seed: 1, IToI: true, IToISample: 16})
}

func BenchmarkRemap(b *testing.B) {
	instances, traces, tree := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := tree.Clone()
		if err := (Oblivious{}).Place(tr, instances, traces); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Remap(tr, traces, RemapConfig{MaxSwaps: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// churnFixture builds a 640-leaf tree holding residents instances dealt
// round-robin (their traces cycle through a small distinct set: what is
// measured scales with the resident count, not with distinct trace memory),
// and the TraceFn resolving them and one more instance, "arrival".
func churnFixture(tb testing.TB, residents int) (*powertree.Node, TraceFn) {
	tb.Helper()
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "c", SuitesPerDC: 4, MSBsPerSuite: 4, SBsPerMSB: 4, RPPsPerSB: 10,
		LeafBudget: 1e9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(640))
	distinct := make([]timeseries.Series, 97)
	for i := range distinct {
		distinct[i] = timeseries.Zeros(t0, 30*time.Minute, 336)
		for j := range distinct[i].Values {
			distinct[i].Values[j] = 100 + 200*rng.Float64()
		}
	}
	index := map[string]int{"arrival": 5}
	leaves := tree.Leaves()
	for i := 0; i < residents; i++ {
		id := fmt.Sprintf("r-%05d", i)
		index[id] = i % len(distinct)
		if err := leaves[i%len(leaves)].Attach(id); err != nil {
			tb.Fatal(err)
		}
	}
	return tree, func(id string) (timeseries.Series, bool) {
		i, ok := index[id]
		return distinct[i], ok
	}
}

// admitRetire is one steady-state churn pair.
func admitRetire(tb testing.TB, o *Online) {
	if _, err := o.Admit(Instance{ID: "arrival"}); err != nil {
		tb.Fatal(err)
	}
	if _, err := o.Retire("arrival"); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkOnlineAdmit is one admission + retirement under the asynchrony
// policy at the end-to-end benchmark's shape: 640 leaves, ≈ 10 000 residents,
// one-week traces at 30-minute step.
func BenchmarkOnlineAdmit(b *testing.B) {
	benchAdmit(b, churnFixture)
}

func benchAdmit(b *testing.B, fixture func(testing.TB, int) (*powertree.Node, TraceFn)) {
	tree, traces := fixture(b, 10_000)
	o, err := NewOnline(tree, traces, PolicyConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := obsTracePasses.Value()
	for i := 0; i < b.N; i++ {
		admitRetire(b, o)
	}
	b.ReportMetric(float64(obsTracePasses.Value()-before)/float64(b.N), "passes/op")
}

// diurnalFixture is churnFixture's 640-leaf shape with residents drawn from
// a workload DC2 fleet (one week at 30-minute step, 400 instances cycled)
// instead of i.i.d. noise, and "arrival" one more of that fleet's traces:
// diurnal traces whose peaks cluster, the case the admission bounds prune.
func diurnalFixture(tb testing.TB, residents int) (*powertree.Node, TraceFn) {
	tb.Helper()
	cfg, err := workload.StandardDCConfig(workload.DC2, 4)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Gen.Step, cfg.Gen.Weeks = 30*time.Minute, 1
	fleet, err := workload.Generate(cfg.Gen, workload.StandardProfiles())
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "c", SuitesPerDC: 4, MSBsPerSuite: 4, SBsPerMSB: 4, RPPsPerSB: 10,
		LeafBudget: 1e9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	power := fleet.PowerFn()
	ids := fleet.IDs()
	source := map[string]string{"arrival": ids[5]}
	leaves := tree.Leaves()
	for i := 0; i < residents; i++ {
		id := fmt.Sprintf("r-%05d", i)
		source[id] = ids[i%len(ids)]
		if err := leaves[i%len(leaves)].Attach(id); err != nil {
			tb.Fatal(err)
		}
	}
	return tree, func(id string) (timeseries.Series, bool) {
		src, ok := source[id]
		if !ok {
			return timeseries.Series{}, false
		}
		return power(src)
	}
}

// placedFixture is churnFixture's 640-leaf shape holding a DC2 fleet
// (one week at 30-minute step) placed by WorkloadAware, the §3.5 placer
// Bootstrap runs, with its last instance held out as "arrival". Every leaf
// is then a small copy of the whole fleet, so candidate scores sit close
// together, as in the end-to-end benchmark after Bootstrap.
func placedFixture(tb testing.TB, residents int) (*powertree.Node, TraceFn) {
	tb.Helper()
	cfg, err := workload.StandardDCConfig(workload.DC2, max(1, residents/100))
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Gen.Step, cfg.Gen.Weeks = 30*time.Minute, 1
	fleet, err := workload.Generate(cfg.Gen, workload.StandardProfiles())
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := powertree.Build(powertree.TopologySpec{
		Name: "c", SuitesPerDC: 4, MSBsPerSuite: 4, SBsPerMSB: 4, RPPsPerSB: 10,
		LeafBudget: 1e9,
	})
	if err != nil {
		tb.Fatal(err)
	}
	last := len(fleet.Instances) - 1
	instances := make([]Instance, last)
	for i, inst := range fleet.Instances[:last] {
		instances[i] = Instance{ID: inst.ID, Service: inst.Service}
	}
	power := fleet.PowerFn()
	if err := (WorkloadAware{Seed: 1}).Place(tree, instances, TraceFn(power)); err != nil {
		tb.Fatal(err)
	}
	arrival := fleet.Instances[last].ID
	return tree, func(id string) (timeseries.Series, bool) {
		if id == "arrival" {
			id = arrival
		}
		return power(id)
	}
}

// tightFixture is placedFixture with every leaf's budget between its
// aggregate's peak and that peak plus the arrival's: the peak plus 0.890 to
// 0.902 of the arrival's peak, in steps of 0.002 over the leaves. The
// arrival lifts a leaf's peak by 0.898 to 0.928 of its own, so most leaves
// cannot take it and some can, and no leaf passes the peak-sum bound: the
// feasibility walk must decide each one from its readings.
func tightFixture(tb testing.TB, residents int) (*powertree.Node, TraceFn) {
	tb.Helper()
	tree, traces := placedFixture(tb, residents)
	aggs, err := tree.AggregateAll(powertree.PowerFn(traces))
	if err != nil {
		tb.Fatal(err)
	}
	tr, _ := traces("arrival")
	for i, leaf := range tree.Leaves() {
		leaf.Budget = aggs.Peak(leaf) + tr.Peak()*(0.89+0.002*float64(i%7))
	}
	return tree, traces
}

// BenchmarkOnlineAdmitDiurnal is BenchmarkOnlineAdmit over diurnalFixture,
// and BenchmarkOnlineAdmitPlaced over placedFixture. All four report
// passes/op, the full trace passes per admission.
func BenchmarkOnlineAdmitDiurnal(b *testing.B) {
	benchAdmit(b, diurnalFixture)
}

func BenchmarkOnlineAdmitPlaced(b *testing.B) {
	benchAdmit(b, placedFixture)
}

// BenchmarkOnlineAdmitTight is BenchmarkOnlineAdmit over tightFixture, where
// the feasibility walk, not Choose, makes most of the passes.
func BenchmarkOnlineAdmitTight(b *testing.B) {
	benchAdmit(b, tightFixture)
}

// BenchmarkOnlineChoose is OnlineAsynchrony.Choose alone over placedFixture's
// 640 candidates: the scoring half of an admission, without the feasibility
// walk or the ledger update.
func BenchmarkOnlineChoose(b *testing.B) {
	tree, traces := placedFixture(b, 10_000)
	o, err := NewOnline(tree, traces, PolicyConfig{})
	if err != nil {
		b.Fatal(err)
	}
	tr, _ := traces("arrival")
	o.arrival, o.arrivalPeak, o.arrivalSlot = tr, tr.Peak(), tr.PeakIndex()
	cands, err := o.feasibleLeaves()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.policy.Choose(cands, Instance{ID: "arrival"}, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemapTick is the Remap inside a drift tick at the same shape:
// every pair of 640 RPPs is a candidate, 24 swaps at most.
func BenchmarkRemapTick(b *testing.B) {
	benchRemapTick(b, churnFixture)
}

// BenchmarkRemapTickDiurnal is BenchmarkRemapTick over diurnalFixture.
// Both report pairs-scored/op, the pairs the bounds left to an exact
// differential, beside pairs-attempted/op.
func BenchmarkRemapTickDiurnal(b *testing.B) {
	benchRemapTick(b, diurnalFixture)
}

func benchRemapTick(b *testing.B, fixture func(testing.TB, int) (*powertree.Node, TraceFn)) {
	tree, traces := fixture(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	attempted, scored := obsSwapsAttempted.Value(), obsPairsScored.Value()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := tree.Clone()
		b.StartTimer()
		if _, err := Remap(tr, traces, RemapConfig{MaxSwaps: 24}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(obsSwapsAttempted.Value()-attempted)/float64(b.N), "pairs-attempted/op")
	b.ReportMetric(float64(obsPairsScored.Value()-scored)/float64(b.N), "pairs-scored/op")
}

// BenchmarkLevelAsynchrony is the drift monitor's leaf scoring at the same
// shape, over a prebuilt ledger as a tick holds it: one read-only pass over
// the residents' peaks.
func BenchmarkLevelAsynchrony(b *testing.B) {
	tree, traces := churnFixture(b, 10_000)
	aggs, err := tree.AggregateAll(powertree.PowerFn(traces))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LevelAsynchronyFrom(aggs, powertree.RPP, traces, 0); err != nil {
			b.Fatal(err)
		}
	}
}
