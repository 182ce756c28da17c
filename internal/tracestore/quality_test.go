package tracestore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/timeseries"
)

var qEpoch = time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)

func TestSnapshotQualityBasics(t *testing.T) {
	st := New(Config{Step: time.Minute})
	window := 100 * time.Minute
	to := qEpoch.Add(window)

	if _, _, err := st.SnapshotQuality("ghost", qEpoch, to); err == nil {
		t.Fatal("unknown instance must error")
	}
	if _, _, err := st.SnapshotQuality("x", to, qEpoch); err == nil {
		t.Fatal("empty window must error")
	}

	// Full coverage → GradeGood, zero staleness, zero interpolation.
	for i := 0; i < 100; i++ {
		if err := st.Append("full", qEpoch.Add(time.Duration(i)*time.Minute), 100); err != nil {
			t.Fatal(err)
		}
	}
	tr, q, err := st.SnapshotQuality("full", qEpoch, to)
	if err != nil {
		t.Fatal(err)
	}
	if q.Coverage != 1 || q.InterpolatedFraction != 0 || q.Staleness != 0 || q.Grade != GradeGood {
		t.Fatalf("full coverage quality: %+v", q)
	}
	if tr.Len() != 100 {
		t.Fatalf("trace length %d", tr.Len())
	}

	// Known instance, empty window → GradeNoData, no error, zero series.
	tr, q, err = st.SnapshotQuality("full", to.Add(time.Hour), to.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if q.Grade != GradeNoData || q.Coverage != 0 || !tr.Empty() {
		t.Fatalf("no-data quality: %+v (len %d)", q, tr.Len())
	}
	if q.Staleness != time.Hour {
		t.Fatalf("no-data staleness = %v, want the full window", q.Staleness)
	}

	// A stale tail demotes high coverage to GradeDegraded: 95 of 100 slots
	// covered, but the last 20 minutes (> 10% of the window) are silent.
	for i := 0; i < 80; i++ {
		if err := st.Append("stale", qEpoch.Add(time.Duration(i)*time.Minute), 100); err != nil {
			t.Fatal(err)
		}
	}
	_, q, err = st.SnapshotQuality("stale", qEpoch, to)
	if err != nil {
		t.Fatal(err)
	}
	if q.Grade != GradeDegraded {
		t.Fatalf("stale tail graded %v (quality %+v)", q.Grade, q)
	}
	if q.Staleness != 20*time.Minute {
		t.Fatalf("staleness = %v, want 20m", q.Staleness)
	}
}

func TestGradeString(t *testing.T) {
	for g, want := range map[Grade]string{
		GradeGood: "good", GradeDegraded: "degraded", GradePoor: "poor", GradeNoData: "no-data", Grade(9): "Grade(9)",
	} {
		if got := g.String(); got != want {
			t.Errorf("Grade(%d).String() = %q, want %q", int(g), got, want)
		}
	}
}

// TestQualityInterpolationAgreementProperty is the contract between gap
// repair and quality grading: across randomized (but seeded) gap patterns,
// the reported InterpolatedFraction must equal the fraction of window
// slots the repair actually filled in — including edge gaps, which
// interpolate by extending the nearest reading — and Coverage must account
// for every slot that held a raw reading.
func TestQualityInterpolationAgreementProperty(t *testing.T) {
	const trials = 60
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		step := time.Minute
		n := 50 + rng.Intn(400)
		st := New(Config{Step: step})
		to := qEpoch.Add(time.Duration(n) * step)

		// Drive the gap pattern: i.i.d. drops plus a burst, and every few
		// trials force the edge-gap cases by clearing the window borders.
		dropP := rng.Float64() * 0.9
		burstStart, burstLen := rng.Intn(n), rng.Intn(n/4+1)
		clearHead, clearTail := rng.Intn(4) == 0, rng.Intn(4) == 0
		headLen, tailLen := 1+rng.Intn(n/5+1), 1+rng.Intn(n/5+1)

		kept := make([]bool, n)
		real := 0
		for i := 0; i < n; i++ {
			keep := rng.Float64() >= dropP
			if i >= burstStart && i < burstStart+burstLen {
				keep = false
			}
			if clearHead && i < headLen {
				keep = false
			}
			if clearTail && i >= n-tailLen {
				keep = false
			}
			kept[i] = keep
			if !keep {
				continue
			}
			real++
			if err := st.Append("inst", qEpoch.Add(time.Duration(i)*step), 100+float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if real == 0 {
			_, q, err := st.SnapshotQuality("inst", qEpoch, to)
			if err == nil || q.Grade == GradeNoData {
				// Either the instance was never registered (error) or the
				// window is empty (GradeNoData) — both acceptable here.
				continue
			}
			t.Fatalf("trial %d: empty pattern returned %+v, %v", trial, q, err)
		}

		tr, q, err := st.SnapshotQuality("inst", qEpoch, to)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		wantCov := float64(real) / float64(n)
		wantInterp := float64(n-real) / float64(n)
		if math.Abs(q.Coverage-wantCov) > 1e-12 {
			t.Fatalf("trial %d: Coverage = %v, want %v", trial, q.Coverage, wantCov)
		}
		if math.Abs(q.InterpolatedFraction-wantInterp) > 1e-12 {
			t.Fatalf("trial %d: InterpolatedFraction = %v, want %v", trial, q.InterpolatedFraction, wantInterp)
		}
		if math.Abs(q.Coverage+q.InterpolatedFraction-1) > 1e-12 {
			t.Fatalf("trial %d: coverage %v + interpolated %v != 1", trial, q.Coverage, q.InterpolatedFraction)
		}

		// Count the repaired steps independently: a slot was repaired iff
		// its raw reading was dropped, and raw slots pass through exactly.
		repaired := 0
		for i := 0; i < n; i++ {
			if kept[i] {
				if tr.Values[i] != 100+float64(i) {
					t.Fatalf("trial %d slot %d: raw reading rewritten to %v", trial, i, tr.Values[i])
				}
				continue
			}
			repaired++
			if math.IsNaN(tr.Values[i]) {
				t.Fatalf("trial %d slot %d: gap not repaired", trial, i)
			}
		}
		if got := float64(repaired) / float64(n); math.Abs(q.InterpolatedFraction-got) > 1e-12 {
			t.Fatalf("trial %d: reported interpolated fraction %v, actually repaired %v", trial, q.InterpolatedFraction, got)
		}

		// Edge-gap extension: a cleared head must hold the first real
		// reading, a cleared tail the last.
		if clearHead && !kept[0] {
			first := 0
			for !kept[first] {
				first++
			}
			if tr.Values[0] != tr.Values[first] {
				t.Fatalf("trial %d: head gap %v not extended from first reading %v", trial, tr.Values[0], tr.Values[first])
			}
		}
		if clearTail && !kept[n-1] {
			last := n - 1
			for !kept[last] {
				last--
			}
			if tr.Values[n-1] != tr.Values[last] {
				t.Fatalf("trial %d: tail gap %v not extended from last reading %v", trial, tr.Values[n-1], tr.Values[last])
			}
		}

		// Staleness must match the last kept slot, and the grade must be
		// consistent with the documented thresholds.
		lastKept := n - 1
		for lastKept >= 0 && !kept[lastKept] {
			lastKept--
		}
		wantStale := to.Sub(qEpoch.Add(time.Duration(lastKept+1) * step))
		if q.Staleness != wantStale {
			t.Fatalf("trial %d: staleness %v, want %v", trial, q.Staleness, wantStale)
		}
		window := time.Duration(n) * step
		var wantGrade Grade
		switch {
		case q.Coverage < 0.5:
			wantGrade = GradePoor
		case q.Coverage < 0.9 || q.Staleness > time.Duration(0.1*float64(window)):
			wantGrade = GradeDegraded
		default:
			wantGrade = GradeGood
		}
		if q.Grade != wantGrade {
			t.Fatalf("trial %d: grade %v, want %v (quality %+v)", trial, q.Grade, wantGrade, q)
		}
	}
}

func TestAveragedITraceQuality(t *testing.T) {
	st := New(Config{Step: time.Hour})
	week := 7 * 24 * time.Hour
	end := qEpoch.Add(2 * week)
	// Two weeks of readings with every fourth slot missing.
	for i := 0; i < int(2*week/time.Hour); i++ {
		if i%4 == 3 {
			continue
		}
		if err := st.Append("a", qEpoch.Add(time.Duration(i)*time.Hour), 100); err != nil {
			t.Fatal(err)
		}
	}
	folded, q, err := st.AveragedITraceQuality("a", end, 2)
	if err != nil {
		t.Fatal(err)
	}
	if folded.Len() != int(week/time.Hour) {
		t.Fatalf("folded length %d", folded.Len())
	}
	if q.Grade != GradeDegraded || math.Abs(q.Coverage-0.75) > 1e-12 {
		t.Fatalf("quality %+v, want degraded with 75%% coverage", q)
	}

	// No history at all → GradeNoData without error.
	if err := st.Append("b", end.Add(week), 50); err != nil {
		t.Fatal(err)
	}
	_, q, err = st.AveragedITraceQuality("b", end, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Grade != GradeNoData {
		t.Fatalf("grade %v, want no-data", q.Grade)
	}

	if _, _, err := st.AveragedITraceQuality("a", end, 0); err == nil {
		t.Fatal("weeks < 1 must error")
	}
}

// TestRejectImpulses pins the opt-in sensor-glitch filter: a single spiked
// reading is dropped and bridged from clean neighbours, and — the case that
// motivates running it before gap repair — a spike on the edge of a dropout
// gap is not smeared across the gap as a broad synthetic peak.
func TestRejectImpulses(t *testing.T) {
	st := New(Config{Step: time.Minute, RejectImpulses: true})
	// Steady 100 W with one 3× spike between two good neighbours.
	for i, w := range []float64{100, 101, 300, 102, 103} {
		must(t, st.Append("a", t0.Add(time.Duration(i)*time.Minute), w))
	}
	tr, q, err := st.SnapshotQuality("a", t0, t0.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Values[2] > 110 {
		t.Fatalf("spike survived: %v", tr.Values)
	}
	// The sensor did report every slot; bogus values still count as coverage.
	if q.Coverage != 1 {
		t.Fatalf("coverage = %v", q.Coverage)
	}

	// Spike on the edge of a gap: slots 1–3 dropped, slot 4 spiked. The
	// spike must become a gap too, so the repair bridges 100 → 104 instead
	// of ramping toward 300.
	must(t, st.Append("b", t0, 100))
	must(t, st.Append("b", t0.Add(4*time.Minute), 300))
	must(t, st.Append("b", t0.Add(5*time.Minute), 104))
	tr, _, err = st.SnapshotQuality("b", t0, t0.Add(6*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tr.Values {
		if v > 110 {
			t.Fatalf("gap-edge spike smeared into slot %d: %v", i, tr.Values)
		}
	}

	// Off by default: the same shape survives untouched (exact recovery).
	plain := New(Config{Step: time.Minute})
	must(t, plain.Append("c", t0, 100))
	must(t, plain.Append("c", t0.Add(2*time.Minute), 300))
	must(t, plain.Append("c", t0.Add(4*time.Minute), 100))
	tr, _, err = plain.SnapshotQuality("c", t0, t0.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Values[2] != 300 {
		t.Fatalf("default store altered a written reading: %v", tr.Values)
	}
}

// impulseAt returns the first slot of a read that exceeds twice the larger
// of its neighbours (its one neighbour at an edge) by more than one grid
// step, 2⁻²⁰ W, or -1. A store with RejectImpulses on must never leave one:
// it is exactly what a second, post-repair impulse filter would clamp, so
// none is needed. Repair meets the bound with equality at worst (v beside
// v/2); the snap moves v and its neighbour by ≤ 2⁻²¹ each, so on the grid
// the excess is at most one step.
func impulseAt(vals []float64) int {
	if len(vals) < 2 {
		return -1
	}
	for i, v := range vals {
		var m float64
		switch i {
		case 0:
			m = vals[1]
		case len(vals) - 1:
			m = vals[i-1]
		default:
			m = max(vals[i-1], vals[i+1])
		}
		if v > 2*m+0x1p-20 {
			return i
		}
	}
	return -1
}

// TestRejectImpulsesLeavesNoImpulse pins the reads that meet repair's
// bound, twice the larger neighbour, with equality: a reading v kept beside
// a one-slot gap that repair bridges to a 0 W reading, which leaves v/2
// next to v. In the first ring the gap is a dropout and v's other neighbour
// is v/2; in the second the gap is a rejected spike and v's other neighbour
// is 0 W. With the filter off the spike stays, and impulseAt finds it.
func TestRejectImpulsesLeavesNoImpulse(t *testing.T) {
	cases := []struct {
		name    string
		reject  bool
		written []float64 // NaN: no reading in that slot
		want    []float64
		impulse int
	}{
		{"dropout to 0 W", true, []float64{50, 100, math.NaN(), 0}, []float64{50, 100, 50, 0}, -1},
		{"rejected spike to 0 W", true, []float64{0, 8, 1000, 0}, []float64{0, 8, 4, 0}, -1},
		{"spike kept with the filter off", false, []float64{0, 8, 1000, 0}, []float64{0, 8, 1000, 0}, 2},
	}
	for _, tc := range cases {
		st := New(Config{Step: time.Minute, RejectImpulses: tc.reject})
		for i, w := range tc.written {
			if !math.IsNaN(w) {
				must(t, st.Append("a", t0.Add(time.Duration(i)*time.Minute), w))
			}
		}
		tr, _, err := st.SnapshotQuality("a", t0, t0.Add(time.Duration(len(tc.written))*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tr.Values, tc.want) {
			t.Fatalf("%s: read %v, want %v", tc.name, tr.Values, tc.want)
		}
		if got := impulseAt(tr.Values); got != tc.impulse {
			t.Fatalf("%s: impulse at slot %d, want %d", tc.name, got, tc.impulse)
		}
	}
}

// snapshotQualityOracle is SnapshotQuality as it read windows before the
// one-copy read: every slot maps its own timestamp back onto the ring with
// time arithmetic. It is kept only as the reference the slice copy must
// reproduce bit for bit.
func snapshotQualityOracle(s *Store, id string, from, to time.Time) (timeseries.Series, Quality, error) {
	return timeRingRead(s.cfg, oracleRing(s, id), id, from, to)
}

// repairOracle is snapshotQualityOracle before the snap to the scoring grid.
func repairOracle(s *Store, id string, from, to time.Time) (timeseries.Series, Quality, error) {
	return timeRingRepair(s.cfg, oracleRing(s, id), id, from, to)
}

// oracleRing copies the ring of id out of the store as a timeRing, nil for
// an unknown instance.
func oracleRing(s *Store, id string) *timeRing {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r := s.instances[id]; r != nil {
		return &timeRing{start: s.slotTime(r.start), values: r.slotValues()}
	}
	return nil
}

// timeRing is a ring as the store kept it before slot numbers: its origin
// and newest reading as times, its slots in time order.
type timeRing struct {
	start, latest time.Time
	values        []float64
}

// timeRingRead is the oracle read of the ring r (nil for an unknown
// instance) in a store configured by cfg: the repaired window, snapped to
// the scoring grid.
func timeRingRead(cfg Config, r *timeRing, id string, from, to time.Time) (timeseries.Series, Quality, error) {
	tr, q, err := timeRingRepair(cfg, r, id, from, to)
	timeseries.SnapAll(tr.Values)
	return tr, q, err
}

// timeRingRepair is timeRingRead before the snap.
func timeRingRepair(cfg Config, r *timeRing, id string, from, to time.Time) (timeseries.Series, Quality, error) {
	step := cfg.step()
	from = from.Truncate(step)
	n := int(to.Sub(from) / step)
	if n <= 0 {
		return timeseries.Series{}, Quality{}, fmt.Errorf("tracestore: empty window [%v, %v)", from, to)
	}
	window := time.Duration(n) * step
	if r == nil {
		return timeseries.Series{}, Quality{}, fmt.Errorf("%w: %q", ErrUnknownInstance, id)
	}
	vals := make([]float64, n)
	real, lastReal := 0, -1
	for i := range vals {
		t := from.Add(time.Duration(i) * step)
		idx := int(t.Sub(r.start) / step)
		if idx >= 0 && idx < len(r.values) {
			vals[i] = r.values[idx]
		} else {
			vals[i] = math.NaN()
		}
		if !math.IsNaN(vals[i]) {
			real++
			lastReal = i
		}
	}

	q := Quality{
		Coverage:             float64(real) / float64(n),
		InterpolatedFraction: float64(n-real) / float64(n),
		Staleness:            window,
	}
	if lastReal >= 0 {
		q.Staleness = to.Sub(from.Add(time.Duration(lastReal+1) * step))
	}
	q.Grade = q.grade(window)
	if real == 0 {
		q.InterpolatedFraction = 0
		return timeseries.Series{}, q, nil
	}
	if cfg.RejectImpulses {
		rejectImpulses(vals)
	}
	if err := interpolate(vals); err != nil {
		return timeseries.Series{}, Quality{}, fmt.Errorf("tracestore: instance %q: %w", id, err)
	}
	return timeseries.New(from, step, vals), q, nil
}

// averagedITraceQualityOracle is AveragedITraceQuality over the oracle read:
// the repaired window folded, then snapped.
func averagedITraceQualityOracle(s *Store, id string, weekEnd time.Time, weeks int) (timeseries.Series, Quality, error) {
	if weeks < 1 {
		return timeseries.Series{}, Quality{}, errWeeks
	}
	span := time.Duration(weeks) * 7 * 24 * time.Hour
	tr, q, err := repairOracle(s, id, weekEnd.Add(-span), weekEnd)
	if err != nil || q.Grade == GradeNoData {
		return timeseries.Series{}, q, err
	}
	folded, err := tr.FoldWeeks()
	if err != nil {
		return timeseries.Series{}, q, err
	}
	timeseries.SnapAll(folded.Values)
	return folded, q, nil
}

// sameRead fails unless two reads agree exactly: the same error (by class
// and message), the same Quality in all four fields, and the same series
// down to the bits of every value.
func sameRead(t *testing.T, label string, got, want timeseries.Series, gotQ, wantQ Quality, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) ||
		errors.Is(gotErr, ErrUnknownInstance) != errors.Is(wantErr, ErrUnknownInstance) ||
		errors.Is(gotErr, errWeeks) != errors.Is(wantErr, errWeeks) ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, oracle %v", label, gotErr, wantErr)
	}
	if gotQ != wantQ {
		t.Fatalf("%s: quality %+v, oracle %+v", label, gotQ, wantQ)
	}
	if !got.Start.Equal(want.Start) || got.Step != want.Step || len(got.Values) != len(want.Values) {
		t.Fatalf("%s: series (%v, %v, %d slots), oracle (%v, %v, %d slots)",
			label, got.Start, got.Step, len(got.Values), want.Start, want.Step, len(want.Values))
	}
	for i := range got.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("%s: slot %d = %v, oracle %v", label, i, got.Values[i], want.Values[i])
		}
	}
}

// fillRandomRing drives one instance through a seeded mix of in-order
// readings with gaps, jumps past the ring's end (advance, sometimes past the
// whole retention) and late readings (shiftBack, or ErrStale). Values
// include impulses and both signed zeros; ops bounds how young the ring is.
func fillRandomRing(t *testing.T, rng *rand.Rand, st *Store, id string, origin time.Time, ops int) {
	t.Helper()
	step := st.cfg.step()
	slots := int(st.cfg.retention() / step)
	cursor := origin.Add(time.Duration(rng.Int63n(int64(step)))) // off-grid: Append truncates
	for k := 0; k < ops; k++ {
		at := cursor
		switch p := rng.Float64(); {
		case p < 0.03:
			at = cursor.Add(time.Duration(slots/2+rng.Intn(2*slots)) * step)
			cursor = at
		case p < 0.10:
			at = cursor.Add(-time.Duration(rng.Intn(slots+slots/2)) * step)
		default:
			cursor = cursor.Add(time.Duration(1+rng.Intn(3)) * step)
		}
		w := 50 + 100*rng.Float64()
		switch p := rng.Float64(); {
		case p < 0.05:
			w *= 5
		case p < 0.07:
			w = 0
		case p < 0.09:
			w = math.Copysign(0, -1)
		}
		if err := st.Append(id, at, w); err != nil && !errors.Is(err, ErrStale) {
			t.Fatal(err)
		}
		// advance and shiftBack keep the count of readings in place.
		st.mu.RLock()
		r, real := st.instances[id], 0
		for _, v := range r.values {
			if !math.IsNaN(v) {
				real++
			}
		}
		count := r.count
		st.mu.RUnlock()
		if count != real {
			t.Fatalf("after reading %d the ring counts %d readings, holds %d", k, count, real)
		}
	}
}

// TestSnapshotQualityMatchesSlotOracle pins the one-copy read to the old
// per-slot loop over seeded random rings — gappy, young, advanced and
// shifted back — and windows before, straddling the start of, inside,
// straddling the end of and after each ring, with the impulse filter on and
// off. AveragedITraceQuality is checked the same way.
func TestSnapshotQualityMatchesSlotOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 80; trial++ {
		cfg := Config{
			Step:           []time.Duration{time.Minute, 30 * time.Minute, time.Hour}[rng.Intn(3)],
			RejectImpulses: rng.Intn(2) == 0,
		}
		cfg.Retention = time.Duration(8+rng.Intn(200)) * cfg.Step
		if rng.Intn(3) == 0 {
			cfg.Retention = 3 * 7 * 24 * time.Hour
			cfg.Step = 30 * time.Minute
		}
		st := New(cfg)
		slots := int(cfg.Retention / cfg.Step)
		ops := 1 + rng.Intn(3*slots)
		if rng.Intn(4) == 0 {
			ops = 1 + rng.Intn(5) // young ring
		}
		fillRandomRing(t, rng, st, "a", qEpoch, ops)

		st.mu.RLock()
		start, length := st.slotTime(st.instances["a"].start), len(st.instances["a"].values)
		st.mu.RUnlock()
		step := cfg.Step
		for w := 0; w < 40; w++ {
			n := 1 + rng.Intn(length+10)
			if rng.Intn(6) == 0 {
				n = 1
			}
			var fromSlot int
			switch w % 5 {
			case 0: // before the ring
				fromSlot = -n - rng.Intn(length+1)
			case 1: // straddling its start
				fromSlot = -rng.Intn(n)
			case 2: // inside (or covering it, when n > length)
				fromSlot = rng.Intn(max(1, length-n+1))
			case 3: // straddling its end
				fromSlot = length - 1 - rng.Intn(n)
			case 4: // after it
				fromSlot = length + rng.Intn(length+1)
			}
			from := start.Add(time.Duration(fromSlot) * step)
			to := from.Add(time.Duration(n) * step)
			// Off-grid ends exercise the truncation of from and the
			// floor of the slot count.
			if rng.Intn(3) == 0 {
				from = from.Add(time.Duration(rng.Int63n(int64(step))))
				to = to.Add(time.Duration(rng.Int63n(int64(step))))
			}
			if rng.Intn(20) == 0 {
				to = from // empty window
			}
			label := fmt.Sprintf("trial %d window %d [%v, %v)", trial, w, from, to)
			tr, q, err := st.SnapshotQuality("a", from, to)
			wtr, wq, werr := snapshotQualityOracle(st, "a", from, to)
			sameRead(t, label, tr, wtr, q, wq, err, werr)
			if i := impulseAt(tr.Values); cfg.RejectImpulses && i >= 0 {
				t.Fatalf("%s: impulse left at slot %d: %v", label, i, tr.Values)
			}

			weekEnd := start.Add(time.Duration(rng.Intn(3*length+1)-length) * step)
			weeks := rng.Intn(4)
			label = fmt.Sprintf("trial %d averaged %d weeks to %v", trial, weeks, weekEnd)
			tr, q, err = st.AveragedITraceQuality("a", weekEnd, weeks)
			wtr, wq, werr = averagedITraceQualityOracle(st, "a", weekEnd, weeks)
			sameRead(t, label, tr, wtr, q, wq, err, werr)
		}
		tr, q, err := st.SnapshotQuality("ghost", start, start.Add(step))
		wtr, wq, werr := snapshotQualityOracle(st, "ghost", start, start.Add(step))
		sameRead(t, "unknown instance", tr, wtr, q, wq, err, werr)
	}

	// Gap-free windows, which skip gap repair unless the impulse filter
	// rejects a reading: clean, and spiked at the first, last or an interior
	// slot, or at several at once, with the filter on and off.
	for _, reject := range []bool{false, true} {
		st := New(Config{Step: time.Minute, Retention: 64 * time.Minute, RejectImpulses: reject})
		for i := 0; i < 64; i++ {
			must(t, st.Append("a", qEpoch.Add(time.Duration(i)*time.Minute), 100+float64(i%7)))
		}
		for _, spikes := range [][]int{nil, {0}, {63}, {30}, {0, 30, 63}, {31, 32}} {
			for _, i := range spikes {
				must(t, st.Append("a", qEpoch.Add(time.Duration(i)*time.Minute), 1000))
			}
			for _, w := range [][2]int{{0, 64}, {0, 31}, {30, 64}, {30, 31}, {29, 32}, {31, 33}} {
				from, to := qEpoch.Add(time.Duration(w[0])*time.Minute), qEpoch.Add(time.Duration(w[1])*time.Minute)
				label := fmt.Sprintf("gap-free reject=%v spikes %v window %v", reject, spikes, w)
				tr, q, err := st.SnapshotQuality("a", from, to)
				wtr, wq, werr := snapshotQualityOracle(st, "a", from, to)
				sameRead(t, label, tr, wtr, q, wq, err, werr)
				if q.Coverage != 1 {
					t.Fatalf("%s: coverage %v, want a gap-free window", label, q.Coverage)
				}
			}
			for _, i := range spikes {
				must(t, st.Append("a", qEpoch.Add(time.Duration(i)*time.Minute), 100+float64(i%7)))
			}
		}
	}
}

// FuzzSnapshotQuality drives a seeded random ring, as fillRandomRing builds
// them, and one window chosen by the fuzzer against the per-slot oracle,
// with the impulse filter on and off. Every reading must lie on the scoring
// grid, within 2⁻²¹ W of the oracle's unsnapped repair. With the filter on,
// the read must leave no impulse (impulseAt). The same window is then read
// as a batch of that ring, a gap-free ring over the same span, a second
// random ring and an unknown id, which must agree with the single reads and
// the oracle bit for bit (checkBatchReads).
func FuzzSnapshotQuality(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0), uint8(16), false, int16(0), uint16(16), int64(0))
	f.Add(int64(2), uint16(300), uint8(1), uint8(200), true, int16(-5), uint16(60), int64(0))
	f.Add(int64(3), uint16(3), uint8(2), uint8(8), true, int16(2), uint16(4), int64(1e9))
	f.Add(int64(4), uint16(500), uint8(1), uint8(48), true, int16(40), uint16(48), int64(7))
	f.Add(int64(5), uint16(900), uint8(1), uint8(255), true, int16(0), uint16(256), int64(0))
	f.Add(int64(6), uint16(900), uint8(2), uint8(200), true, int16(10), uint16(168), int64(0))
	// A gap-free window ending on an impulse.
	f.Add(int64(55), uint16(329), uint8(0x14), uint8('j'), true, int16(43), uint16(60), int64(38))
	// A reading v beside a gap bridged to 0 W: v snaps up, v/2 down.
	f.Add(int64(-57), uint16(309), uint8('a'), uint8('3'), true, int16(1), uint16(149), int64(-75))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16, stepIdx, slots uint8, reject bool, fromSlot int16, n uint16, offset int64) {
		step := []time.Duration{time.Minute, 30 * time.Minute, time.Hour}[int(stepIdx)%3]
		st := New(Config{Step: step, Retention: time.Duration(1+int(slots)) * step, RejectImpulses: reject})
		rng := rand.New(rand.NewSource(seed))
		fillRandomRing(t, rng, st, "a", qEpoch, 1+int(ops)%2000)
		st.mu.RLock()
		start := st.slotTime(st.instances["a"].start)
		st.mu.RUnlock()
		// Off-grid window ends exercise the truncation of from and the floor
		// of the slot count.
		off := time.Duration(offset % int64(step))
		if off < 0 {
			off = -off
		}
		from := start.Add(time.Duration(fromSlot)*step + off)
		to := from.Add(time.Duration(int(n)%1000) * step)
		label := fmt.Sprintf("window [%v, %v)", from, to)
		tr, q, err := st.SnapshotQuality("a", from, to)
		wtr, wq, werr := snapshotQualityOracle(st, "a", from, to)
		sameRead(t, label, tr, wtr, q, wq, err, werr)
		raw, _, _ := repairOracle(st, "a", from, to)
		for i, v := range tr.Values {
			if timeseries.Snap(v) != v || math.Abs(v-raw.Values[i]) > 0x1p-21 {
				t.Fatalf("%s: slot %d = %v, off the grid or more than 2⁻²¹ from the repaired %v", label, i, v, raw.Values[i])
			}
		}
		if i := impulseAt(tr.Values); reject && i >= 0 {
			t.Fatalf("%s: impulse left at slot %d: %v", label, i, tr.Values)
		}

		fillGapFreeRing(t, rng, st, "gap-free", start, 1+int(slots))
		fillRandomRing(t, rng, st, "b", start, 1+int(ops)%700)
		ids := []string{"a", "gap-free", "ghost", "b"}
		checkBatchReads(t, label, st, ids, from, to, 1+int(n)%2, 1+int(uint64(seed)%4))
	})
}

// TestSnapshotQualityMatchesSlotOracleAtTimeLimits covers windows and rings
// in year 1 and year 9999, where Time.Sub saturates at the Duration range
// both inside the per-slot oracle and in the one-offset read.
func TestSnapshotQualityMatchesSlotOracleAtTimeLimits(t *testing.T) {
	year1 := time.Time{}.Add(36 * time.Hour)
	year9999 := time.Date(9999, 6, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(9999))
	// A daily step keeps a saturated window (≈ 292 years) near 10⁵ slots.
	cfg := Config{Step: 24 * time.Hour, Retention: 60 * 24 * time.Hour, RejectImpulses: true}
	st := New(cfg)
	for id, origin := range map[string]time.Time{"mid": qEpoch, "first": year1, "last": year9999} {
		fillRandomRing(t, rng, st, id, origin, 90)
	}
	day := cfg.Step
	windows := [][2]time.Time{
		{year1, year1.Add(10 * day)},
		{year1, qEpoch},
		{year1, year9999},
		{year1.Add(-3 * day), year1.Add(3 * day)},
		{qEpoch.Add(-10 * day), year9999},
		{qEpoch.Add(20 * day), qEpoch.Add(40 * day)},
		{year9999.Add(-5 * day), year9999.Add(30 * day)},
		{year9999, year9999.Add(day)},
		{year9999, year1}, // empty
	}
	for _, id := range []string{"mid", "first", "last"} {
		for _, w := range windows {
			label := fmt.Sprintf("%s [%v, %v)", id, w[0], w[1])
			tr, q, err := st.SnapshotQuality(id, w[0], w[1])
			wtr, wq, werr := snapshotQualityOracle(st, id, w[0], w[1])
			sameRead(t, label, tr, wtr, q, wq, err, werr)
		}
		for _, end := range []time.Time{year1.Add(30 * day), qEpoch.Add(30 * day), year9999.Add(30 * day)} {
			label := fmt.Sprintf("%s averaged to %v", id, end)
			tr, q, err := st.AveragedITraceQuality(id, end, 2)
			wtr, wq, werr := averagedITraceQualityOracle(st, id, end, 2)
			sameRead(t, label, tr, wtr, q, wq, err, werr)
		}
	}
}
