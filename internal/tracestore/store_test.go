package tracestore

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/timeseries"
	"repro/internal/workload"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

func TestAppendAndSnapshot(t *testing.T) {
	st := New(Config{Step: time.Minute})
	for i := 0; i < 10; i++ {
		if err := st.Append("a", t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr := snapshot(t, st, "a", t0, t0.Add(10*time.Minute))
	if tr.Len() != 10 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i, v := range tr.Values {
		if v != float64(i) {
			t.Fatalf("value %d = %v", i, v)
		}
	}
	cov, err := st.Coverage("a")
	if err != nil || cov != 1 {
		t.Fatalf("coverage = %v, %v", cov, err)
	}
}

func TestAppendValidation(t *testing.T) {
	st := New(Config{})
	if err := st.Append("a", t0, math.NaN()); err == nil {
		t.Fatal("NaN must be rejected")
	}
	if err := st.Append("a", t0, -5); err == nil {
		t.Fatal("negative power must be rejected")
	}
	if err := st.Append("a", t0, math.Inf(1)); err == nil {
		t.Fatal("Inf must be rejected")
	}
}

func TestAppendOverwriteSameSlot(t *testing.T) {
	st := New(Config{Step: time.Minute})
	must(t, st.Append("a", t0, 5))
	must(t, st.Append("a", t0.Add(10*time.Second), 7)) // same slot
	tr := snapshot(t, st, "a", t0, t0.Add(time.Minute))
	if tr.Values[0] != 7 {
		t.Fatalf("overwrite: %v", tr.Values[0])
	}
}

func TestGapInterpolation(t *testing.T) {
	st := New(Config{Step: time.Minute})
	must(t, st.Append("a", t0, 10))
	must(t, st.Append("a", t0.Add(4*time.Minute), 50))
	tr := snapshot(t, st, "a", t0, t0.Add(5*time.Minute))
	want := []float64{10, 20, 30, 40, 50}
	for i, v := range tr.Values {
		if math.Abs(v-want[i]) > 1e-9 {
			t.Fatalf("interpolated = %v", tr.Values)
		}
	}
	// Coverage reflects the real 2/5 readings.
	cov, _ := st.Coverage("a")
	if math.Abs(cov-0.4) > 1e-9 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestEdgeGapExtension(t *testing.T) {
	st := New(Config{Step: time.Minute})
	must(t, st.Append("a", t0.Add(2*time.Minute), 30))
	tr := snapshot(t, st, "a", t0, t0.Add(5*time.Minute))
	for _, v := range tr.Values {
		if v != 30 {
			t.Fatalf("edge extension: %v", tr.Values)
		}
	}
}

func TestSnapshotErrors(t *testing.T) {
	st := New(Config{Step: time.Minute})
	if _, _, err := st.SnapshotQuality("nope", t0, t0.Add(time.Minute)); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("unknown instance: %v, want ErrUnknownInstance", err)
	}
	must(t, st.Append("a", t0, 1))
	if _, _, err := st.SnapshotQuality("a", t0, t0); err == nil {
		t.Fatal("empty window must error")
	}
	// Window entirely outside readings: the ring has data but the window
	// sees none... edge extension uses readings inside the window only, so
	// it grades no-data with an empty trace.
	tr, q, err := st.SnapshotQuality("a", t0.Add(time.Hour), t0.Add(2*time.Hour))
	if err != nil || q.Grade != GradeNoData || !tr.Empty() {
		t.Fatalf("window with no readings: %v %+v %v, want an empty no-data trace", tr, q, err)
	}
}

func TestRetentionWindowAdvance(t *testing.T) {
	st := New(Config{Step: time.Minute, Retention: 10 * time.Minute})
	must(t, st.Append("a", t0, 1))
	// A reading far in the future advances the window past the original.
	must(t, st.Append("a", t0.Add(30*time.Minute), 2))
	if _, q, err := st.SnapshotQuality("a", t0, t0.Add(time.Minute)); err != nil || q.Grade != GradeNoData {
		t.Fatalf("evicted slot must no longer resolve: %+v %v", q, err)
	}
	if tr := snapshot(t, st, "a", t0.Add(30*time.Minute), t0.Add(31*time.Minute)); tr.Values[0] != 2 {
		t.Fatalf("latest reading lost: %v", tr)
	}
	// Too-old readings are rejected.
	if err := st.Append("a", t0, 9); err != ErrStale {
		t.Fatalf("stale reading: %v", err)
	}
}

func TestOutOfOrderWithinRetention(t *testing.T) {
	st := New(Config{Step: time.Minute, Retention: time.Hour})
	must(t, st.Append("a", t0.Add(10*time.Minute), 10))
	must(t, st.Append("a", t0.Add(5*time.Minute), 5)) // older, still in window
	tr := snapshot(t, st, "a", t0.Add(5*time.Minute), t0.Add(11*time.Minute))
	if tr.Values[0] != 5 || tr.Values[5] != 10 {
		t.Fatalf("out-of-order ingest: %v", tr.Values)
	}
}

// TestLateReadingKeepsNewest pins the retention rule to the newest reading,
// not to the ring's origin: a reading a full retention older than the
// newest is stale, and a late reading never evicts newer telemetry.
func TestLateReadingKeepsNewest(t *testing.T) {
	st := New(Config{Step: time.Hour, Retention: 24 * time.Hour})
	for i := 0; i < 24; i++ {
		must(t, st.Append("a", t0.Add(time.Duration(i)*time.Hour), float64(100+i)))
	}
	latest := t0.Add(23 * time.Hour)
	for _, late := range []time.Duration{-5 * time.Hour, -time.Hour} {
		if err := st.Append("a", t0.Add(late), 1); !errors.Is(err, ErrStale) {
			t.Fatalf("reading at t0%v: err %v, want ErrStale", late, err)
		}
	}
	tr, q, err := st.SnapshotQuality("a", latest.Add(-5*time.Hour), latest.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{118, 119, 120, 121, 122, 123}; !reflect.DeepEqual(tr.Values, want) {
		t.Fatalf("last 6 h = %v, want %v", tr.Values, want)
	}
	if q.Coverage != 1 || q.Grade != GradeGood {
		t.Fatalf("last 6 h quality %+v, want full coverage and GradeGood", q)
	}
	// The oldest retained slot still takes a correction.
	must(t, st.Append("a", t0, 7))

	// On a young ring a reading before the origin but within the retention
	// that ends at the newest reading is accepted, and one a full retention
	// older is not.
	young := New(Config{Step: time.Hour, Retention: 24 * time.Hour})
	must(t, young.Append("b", t0.Add(10*time.Hour), 10))
	must(t, young.Append("b", t0.Add(-13*time.Hour), 3))
	if err := young.Append("b", t0.Add(-14*time.Hour), 2); !errors.Is(err, ErrStale) {
		t.Fatalf("reading a retention before the newest: err %v, want ErrStale", err)
	}
	tr = snapshot(t, young, "b", t0.Add(-13*time.Hour), t0.Add(11*time.Hour))
	if tr.Values[0] != 3 || tr.Values[23] != 10 {
		t.Fatalf("young ring lost a reading: %v", tr.Values)
	}
}

// TestAppendSteadyStateInPlace pins ingest into a full ring: each new slot
// opens in place without allocating, drops exactly the readings that fall
// out of it from the count, and keeps every retained reading.
func TestAppendSteadyStateInPlace(t *testing.T) {
	st := New(Config{Step: time.Minute, Retention: 10 * time.Minute})
	for i := 0; i < 10; i++ {
		if i != 3 { // one gap, which must leave the count when it is dropped
			must(t, st.Append("a", t0.Add(time.Duration(i)*time.Minute), float64(i)))
		}
	}
	next := 10
	if allocs := testing.AllocsPerRun(20, func() {
		must(t, st.Append("a", t0.Add(time.Duration(next)*time.Minute), float64(next)))
		next++
	}); allocs != 0 {
		t.Fatalf("steady-state Append allocates %v times per reading", allocs)
	}
	// A jump of three slots drops three readings and opens two gaps.
	must(t, st.Append("a", t0.Add(time.Duration(next+2)*time.Minute), float64(next+2)))
	st.mu.RLock()
	r := st.instances["a"]
	count, start, vals := r.count, st.slotTime(r.start), r.slotValues()
	st.mu.RUnlock()
	if want := t0.Add(time.Duration(next-7) * time.Minute); !start.Equal(want) || count != 8 {
		t.Fatalf("ring starts %v holding %d readings, want %v and 8", start, count, want)
	}
	for i, v := range vals {
		slot := next - 7 + i
		if slot == next || slot == next+1 {
			if !math.IsNaN(v) {
				t.Fatalf("slot %d = %v, want a gap", slot, v)
			}
		} else if v != float64(slot) {
			t.Fatalf("slot %d = %v, want %d", slot, v, slot)
		}
	}
}

func TestAveragedITrace(t *testing.T) {
	st := New(Config{Step: time.Hour, Retention: 3 * 7 * 24 * time.Hour})
	// Two weeks: first all 2s, second all 4s → folded = 3s.
	for i := 0; i < 2*7*24; i++ {
		v := 2.0
		if i >= 7*24 {
			v = 4.0
		}
		must(t, st.Append("a", t0.Add(time.Duration(i)*time.Hour), v))
	}
	avg, q, err := st.AveragedITraceQuality("a", t0.Add(2*7*24*time.Hour), 2)
	if err != nil || q.Grade != GradeGood {
		t.Fatalf("%+v %v", q, err)
	}
	if avg.Len() != 7*24 {
		t.Fatalf("len = %d", avg.Len())
	}
	for i, v := range avg.Values {
		if v != 3 {
			t.Fatalf("fold at %d = %v", i, v)
		}
	}
	if _, _, err := st.AveragedITraceQuality("a", t0, 0); err == nil {
		t.Fatal("weeks < 1 must error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st := New(Config{Step: time.Minute, Retention: time.Hour})
	must(t, st.Append("a", t0, 10))
	must(t, st.Append("a", t0.Add(2*time.Minute), 30))
	must(t, st.Append("b", t0.Add(time.Minute), 99))
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Instances(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("instances = %v", got)
	}
	tr := snapshot(t, back, "a", t0, t0.Add(3*time.Minute))
	if tr.Values[0] != 10 || tr.Values[1] != 20 || tr.Values[2] != 30 {
		t.Fatalf("restored trace: %v", tr.Values)
	}
	cov, err := back.Coverage("a")
	if err != nil || math.Abs(cov-2.0/3) > 1e-9 {
		t.Fatalf("restored coverage: %v %v", cov, err)
	}
	if _, err := Load(bytes.NewReader([]byte("{"))); err == nil {
		t.Fatal("corrupt checkpoint must error")
	}
}

func TestAppendRunPipelineIntegration(t *testing.T) {
	// End-to-end: generated fleet traces flow through the store as one run
	// each and come back out identical (full coverage, no gaps).
	spec := workload.GenSpec{
		Mix:   map[string]int{"frontend": 2, "hadoop": 2},
		Start: t0, Step: time.Hour, Weeks: 1,
		PhaseJitterHours: 1, AmplitudeSigma: 0.1, NoiseSigma: 0.01, Seed: 3,
	}
	fleet, err := workload.Generate(spec, workload.StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	st := New(Config{Step: time.Hour, Retention: 8 * 24 * time.Hour})
	for _, inst := range fleet.Instances {
		if err := st.AppendRun(inst.ID, inst.Trace.Start, inst.Trace.Values); err != nil {
			t.Fatal(err)
		}
	}
	ids := st.Instances()
	all := make([]timeseries.Series, len(ids))
	if _, err := st.SnapshotQualityBatch(ids, t0, t0.Add(7*24*time.Hour), 0, func(i int, tr timeseries.Series, _ Quality) {
		all[i] = tr
	}); err != nil {
		t.Fatal(err)
	}
	for _, inst := range fleet.Instances {
		got := all[slices.Index(ids, inst.ID)]
		if got.Len() != inst.Trace.Len() {
			t.Fatalf("%s: len %d vs %d", inst.ID, got.Len(), inst.Trace.Len())
		}
		for i := range got.Values {
			if got.Values[i] != timeseries.Snap(inst.Trace.Values[i]) {
				t.Fatalf("%s: value %d = %v, want %v on the grid", inst.ID, i, got.Values[i], inst.Trace.Values[i])
			}
		}
	}
}

func TestConcurrentAppendAndSnapshot(t *testing.T) {
	st := New(Config{Step: time.Minute, Retention: time.Hour})
	must(t, st.Append("a", t0, 1))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = st.Append("a", t0.Add(time.Duration(i%50)*time.Minute), float64(g*i))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, _, _ = st.SnapshotQuality("a", t0, t0.Add(30*time.Minute))
				_ = st.Instances()
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotQualityBatchErrors pins the batch read's error rule at any
// worker count: an unknown instance grades no-data, a window error fails
// index 0, and a per-instance failure comes back from the lowest failing
// index with the single read's text.
func TestSnapshotQualityBatchErrors(t *testing.T) {
	// A two-week step leaves no whole week to fold, so every instance with a
	// reading in the training window fails the fold; one without grades
	// no-data.
	st := New(Config{Step: 14 * 24 * time.Hour, Retention: 8 * 7 * 24 * time.Hour})
	end := t0.Add(8 * 7 * 24 * time.Hour)
	must(t, st.Append("dark", t0, 1))
	for _, id := range []string{"b", "c"} {
		must(t, st.Append(id, end.Add(-2*7*24*time.Hour), 1))
	}
	_, _, want := st.AveragedITraceQuality("b", end, 4)
	if want == nil {
		t.Fatal("the fold of a two-week step must fail")
	}
	ids := []string{"ghost", "dark", "c", "b"}
	for _, workers := range []int{1, 2, 8} {
		got := make([]Quality, len(ids))
		i, err := st.AveragedITraceQualityBatch(ids, end, 4, workers, func(i int, _ timeseries.Series, q Quality) { got[i] = q })
		if i != 2 || err == nil || err.Error() != want.Error() {
			t.Fatalf("workers %d: failure at %d: %v, want at 2: %v", workers, i, err, want)
		}
		if got[0] != (Quality{Grade: GradeNoData}) || got[1].Grade != GradeNoData {
			t.Fatalf("workers %d: qualities %+v, want no-data for the unknown and the dark instance", workers, got[:2])
		}
		if _, err := st.SnapshotQualityBatch(ids, end, end, workers, func(int, timeseries.Series, Quality) {}); err == nil ||
			!strings.Contains(err.Error(), "empty window") {
			t.Fatalf("workers %d: empty window: %v", workers, err)
		}
		if _, err := st.AveragedITraceQualityBatch(ids, end, 0, workers, func(int, timeseries.Series, Quality) {}); !errors.Is(err, errWeeks) {
			t.Fatalf("workers %d: zero weeks: %v", workers, err)
		}
	}
	if i, err := st.SnapshotQualityBatch(nil, end, end, 1, nil); i != 0 || err != nil {
		t.Fatalf("empty batch: %d %v", i, err)
	}
}

func TestDefaults(t *testing.T) {
	st := New(Config{})
	if st.Step() != time.Minute {
		t.Fatalf("default step = %v", st.Step())
	}
	if (Config{}).retention() != 3*7*24*time.Hour {
		t.Fatal("default retention")
	}
}

// snapshot is SnapshotQuality's trace, failing the test on an error or a
// window with no readings.
func snapshot(t *testing.T, st *Store, id string, from, to time.Time) timeseries.Series {
	t.Helper()
	tr, q, err := st.SnapshotQuality(id, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if q.Grade == GradeNoData {
		t.Fatalf("%q: no readings in [%v, %v)", id, from, to)
	}
	return tr
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadKeepsRejectImpulses: a restored store keeps filtering
// impulses, so a spiky window reads the same before Save and after Load,
// and a store with the filter off still writes no reject_impulses field.
func TestSaveLoadKeepsRejectImpulses(t *testing.T) {
	st := New(Config{Step: time.Minute, Retention: time.Hour, RejectImpulses: true})
	for i, w := range []float64{100, 101, 500, 102, 103} {
		must(t, st.Append("a", t0.Add(time.Duration(i)*time.Minute), w))
	}
	before, qb, err := st.SnapshotQuality("a", t0, t0.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if before.Values[2] > 110 {
		t.Fatalf("spike survived before Save: %v", before.Values)
	}
	var buf bytes.Buffer
	must(t, st.Save(&buf))
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	after, qa, err := back.SnapshotQuality("a", t0, t0.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if qa != qb || !reflect.DeepEqual(after.Values, before.Values) {
		t.Fatalf("restored read %v %+v, before Save %v %+v", after.Values, qa, before.Values, qb)
	}

	plain := New(Config{Step: time.Minute, Retention: time.Hour})
	must(t, plain.Append("a", t0, 1))
	buf.Reset()
	must(t, plain.Save(&buf))
	if strings.Contains(buf.String(), "reject_impulses") {
		t.Fatalf("filter-off checkpoint carries the field: %s", buf.String())
	}
}

// TestSaveLoadSubSecondStep: start and latest survive the round trip at
// nanosecond precision, so a sub-second step's ring stays on its grid.
func TestSaveLoadSubSecondStep(t *testing.T) {
	step := 250 * time.Millisecond
	st := New(Config{Step: step, Retention: time.Minute})
	for i := 0; i < 10; i++ {
		must(t, st.Append("a", t0.Add(1750*time.Millisecond+time.Duration(i)*step), float64(i)))
	}
	var buf bytes.Buffer
	must(t, st.Save(&buf))
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	from := t0.Add(1750 * time.Millisecond)
	want := snapshot(t, st, "a", from, from.Add(10*step))
	got := snapshot(t, back, "a", from, from.Add(10*step))
	if !reflect.DeepEqual(got, want) || back.Step() != step {
		t.Fatalf("restored %v at step %v, saved %v at step %v", got.Values, back.Step(), want.Values, step)
	}
}

// TestLoadRejectsBadCheckpoints: Load refuses checkpoints that would break
// the store's invariants with ErrBadCheckpoint (among them a reading newer
// than the ring's latest), and still reads checkpoints written with
// whole-second RFC3339 timestamps.
func TestLoadRejectsBadCheckpoints(t *testing.T) {
	ok := `{"step_seconds":60,"retention_seconds":180,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"2016-07-25T00:02:00Z","values":[1,-1,3]}}}`
	if _, err := Load(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid checkpoint: %v", err)
	}
	for name, cp := range map[string]string{
		"zero step":          `{"step_seconds":0,"retention_seconds":180,"instances":{}}`,
		"negative step":      `{"step_seconds":-60,"retention_seconds":180,"instances":{}}`,
		"sub-ns step":        `{"step_seconds":1e-12,"retention_seconds":180,"instances":{}}`,
		"overflowing step":   `{"step_seconds":1e300,"retention_seconds":180,"instances":{}}`,
		"zero retention":     `{"step_seconds":60,"retention_seconds":0,"instances":{}}`,
		"retention < step":   `{"step_seconds":60,"retention_seconds":30,"instances":{}}`,
		"start off the grid": `{"step_seconds":60,"retention_seconds":180,"instances":{"a":{"start":"2016-07-25T00:00:30Z","latest":"2016-07-25T00:01:30Z","values":[1,-1,3]}}}`,
		"short ring":         `{"step_seconds":60,"retention_seconds":180,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"2016-07-25T00:00:00Z","values":[1]}}}`,
		"bad start":          `{"step_seconds":60,"retention_seconds":180,"instances":{"a":{"start":"yesterday","latest":"2016-07-25T00:00:00Z","values":[1,2,3]}}}`,
		"bad latest":         `{"step_seconds":60,"retention_seconds":180,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"","values":[1,2,3]}}}`,
		// Append would take 00:00:00 as the newest reading, accept one at
		// 23:57 the day before and evict the 7 W reading at 00:04.
		"reading after latest": `{"step_seconds":60,"retention_seconds":300,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"2016-07-25T00:00:00Z","values":[2,-1,-1,-1,7]}}}`,
		// Coverage would divide two readings by a year of slots.
		"latest past the ring": `{"step_seconds":60,"retention_seconds":300,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"2017-07-25T00:00:00Z","values":[2,-1,7,-1,-1]}}}`,
		"latest before start":  `{"step_seconds":60,"retention_seconds":180,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"2016-07-24T23:59:00Z","values":[1,-1,-1]}}}`,
		// The ring holds latest as a slot number; Append never writes one
		// between two slots.
		"latest off the grid": `{"step_seconds":60,"retention_seconds":180,"instances":{"a":{"start":"2016-07-25T00:00:00Z","latest":"2016-07-25T00:01:30Z","values":[1,-1,-1]}}}`,
	} {
		if _, err := Load(strings.NewReader(cp)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: err = %v, want ErrBadCheckpoint", name, err)
		}
	}
}

// slotValues returns a copy of the ring's slots in time order.
func (r *ring) slotValues() []float64 {
	a, b := r.span(0, len(r.values))
	return slices.Concat(a, b)
}
