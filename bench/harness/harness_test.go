package harness

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{50, 10, 40, 20, 30} // order must not matter
	for _, c := range []struct{ p, want float64 }{{50, 30}, {90, 50}, {99, 50}, {20, 10}, {21, 20}, {100, 50}} {
		if got := Percentile(samples, c.p); got != c.want {
			t.Errorf("Percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile of nothing = %v, want 0", got)
	}
	if samples[0] != 50 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestSegmentPercentileIgnoresOneBadSegment(t *testing.T) {
	// Ten samples per segment; the third segment is a noisy-neighbour burst.
	var samples []float64
	for seg := 0; seg < Segments; seg++ {
		for i := 1; i <= 10; i++ {
			v := float64(i)
			if seg == 2 {
				v *= 100
			}
			samples = append(samples, v)
		}
	}
	if got := SegmentPercentile(samples, 50); got != 5 {
		t.Errorf("segment-median p50 = %v, want 5 (the burst costs one segment)", got)
	}
	if whole := Percentile(samples, 90); whole < 100 {
		t.Errorf("whole-run p90 = %v; the test's burst should dominate it", whole)
	}
	if got := SegmentPercentile(samples, 90); got != 9 {
		t.Errorf("segment-median p90 = %v, want 9", got)
	}
	// Fewer samples than segments: one piece per sample, median of them.
	if got := SegmentPercentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("three samples: got %v, want 2", got)
	}
	if got := SegmentPercentile(nil, 50); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := Quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := Spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3 = Quartiles([]float64{40, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("Quartiles of three = %v %v %v, want 10 20 40", q1, q2, q3)
	}
}

// fakeClock advances only when told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func TestSelfTimeArithmetic(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	rec := NewRecorder(clock.Now)

	// One operation: its layer calls are re-enacted first (3ms + 2ms, the
	// second with a 1ms grandchild), then the real operation takes 10ms.
	root := rec.Begin("tick", "core", -1, 1)
	a := rec.Begin("tracestore.snapshot", "tracestore", root, 1)
	clock.advance(3 * time.Millisecond)
	rec.End(a)
	b := rec.Begin("placement.remap", "placement", root, 1)
	g := rec.Begin("score.differential", "score", b, 1)
	clock.advance(1 * time.Millisecond)
	rec.End(g)
	clock.advance(1 * time.Millisecond)
	rec.End(b)
	rec.Restart(root)
	clock.advance(10 * time.Millisecond)
	if d := rec.End(root); d != 10*time.Millisecond {
		t.Fatalf("root duration = %v, want 10ms (Restart must drop the re-enactment time)", d)
	}

	// A second operation whose re-enactment ran slower than the real thing.
	root2 := rec.Begin("admit", "httpapi", -1, 2)
	c := rec.Begin("placement.online_admit", "placement", root2, 2)
	clock.advance(4 * time.Millisecond)
	rec.End(c)
	rec.Restart(root2)
	clock.advance(3 * time.Millisecond)
	rec.End(root2)

	spans := rec.Spans()
	self, overrun := SelfTimes(spans)
	want := []time.Duration{5 * time.Millisecond, 3 * time.Millisecond, 1 * time.Millisecond, 1 * time.Millisecond, 0, 4 * time.Millisecond}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	if overrun != 1 {
		t.Errorf("overrun = %d, want 1", overrun)
	}
	// Layer self times plus the root's own must add up to the root span.
	if sum := self[root] + spans[a].Duration() + spans[b].Duration(); sum != spans[root].Duration() {
		t.Errorf("root self + children = %v, root = %v", sum, spans[root].Duration())
	}
	if rec.OpOf(g) != 1 || rec.NameOf(c) != "placement.online_admit" {
		t.Error("OpOf/NameOf disagree with what was recorded")
	}
}

func specForTest() *Spec {
	s := &Spec{EndToEnd: []Metric{
		{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	}, PerLayer: []Metric{{Name: "cluster.kmeans_ms", Unit: "ms", Better: "lower"}}}
	s.Workloads = append(s.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	return s
}

func runs(lat, rate []float64, failed int) *File {
	f := &File{}
	for i := range lat {
		f.Runs = append(f.Runs, Run{Workload: "w", Failed: failed, Metrics: map[string]Value{
			"op_p50_ms": {Value: lat[i], Unit: "ms"}, "ops_per_s": {Value: rate[i], Unit: "1/s"},
		}})
	}
	return f
}

func TestCompareVerdicts(t *testing.T) {
	spec := specForTest()
	steady := []float64{100, 101, 99, 100, 100}
	base := runs(steady, steady, 0)

	verdict := func(next *File) (string, string, bool) {
		pairs, failedUp := Compare(spec, base, next)
		if len(pairs) != 2 {
			t.Fatalf("got %d pairings, want 2", len(pairs))
		}
		return pairs[0].Verdict, pairs[1].Verdict, Regressed(pairs, failedUp)
	}
	if l, r, bad := verdict(runs(steady, steady, 0)); l != VerdictOK || r != VerdictOK || bad {
		t.Errorf("same runs: %s %s regressed=%v", l, r, bad)
	}
	slow := []float64{120, 121, 119, 120, 120}
	if l, r, bad := verdict(runs(slow, slow, 0)); l != VerdictRegressed || r != VerdictImproved || !bad {
		t.Errorf("20%% slower latency, 20%% higher rate: %s %s regressed=%v", l, r, bad)
	}
	// The new side's own spread (IQR 40% of median) exceeds the 10% bound:
	// a worse median is unresolved, not a regression.
	noisy := []float64{100, 140, 90, 130, 120}
	if l, _, bad := verdict(runs(noisy, steady, 0)); l != VerdictUnresolved || bad {
		t.Errorf("noisy latency: %s regressed=%v, want unresolved", l, bad)
	}
	// …unless every new run beats every base run.
	noisyFast := []float64{50, 80, 60, 90, 70}
	if l, _, _ := verdict(runs(noisyFast, steady, 0)); l != VerdictImproved {
		t.Errorf("noisy but always faster: %s, want improved", l)
	}
	if _, _, bad := verdict(runs(steady, steady, 1)); !bad {
		t.Error("more failed operations than base must fail the gate")
	}
	pairs, _ := Compare(spec, base, runs(slow, slow, 0))
	if pairs[0].Base != 100 || pairs[0].New != 120 || math.Abs(pairs[0].Ratio-1.2) > 1e-12 {
		t.Errorf("ratio must come with its base: %+v", pairs[0])
	}
}

func TestSpecCheck(t *testing.T) {
	spec := specForTest()
	good := map[string]Value{"op_p50_ms": {Unit: "ms"}, "ops_per_s": {Unit: "1/s"}}
	if p := spec.Check(false, good); len(p) != 0 {
		t.Errorf("matching metrics reported problems: %v", p)
	}
	bad := map[string]Value{"op_p50_ms": {Unit: "us"}, "extra": {Unit: "ms"}}
	if p := spec.Check(false, bad); len(p) != 3 {
		t.Errorf("want wrong unit + missing + undeclared, got %v", p)
	}
	if p := spec.Check(true, map[string]Value{"cluster.kmeans_ms": {Unit: "ms"}}); len(p) != 0 {
		t.Errorf("traced set reported problems: %v", p)
	}
}
