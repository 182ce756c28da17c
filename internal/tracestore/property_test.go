package tracestore

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// TestStoreRecoveryProperty: any set of in-window, in-order-or-not readings
// is recoverable exactly at its slots, as the scoring grid holds them, and
// snapshots never invent values outside the convex hull of what was
// written (snapping is monotone, so the hull's snapped ends bound them).
func TestStoreRecoveryProperty(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		step := time.Duration(rng.Intn(50)+10) * time.Minute
		slots := rng.Intn(80) + 20
		st := New(Config{Step: step, Retention: time.Duration(slots) * step})

		written := make(map[int]float64)
		minV, maxV := math.Inf(1), math.Inf(-1)
		nWrites := rng.Intn(40) + 1
		for w := 0; w < nWrites; w++ {
			slot := rng.Intn(slots)
			v := rng.Float64() * 500
			at := t0.Add(time.Duration(slot) * step)
			if err := st.Append("x", at, v); err != nil {
				t.Fatalf("trial %d: append slot %d: %v", trial, slot, err)
			}
			written[slot] = v
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		tr := snapshot(t, st, "x", t0, t0.Add(time.Duration(slots)*step))
		if tr.Len() != slots {
			t.Fatalf("trial %d: snapshot len %d", trial, tr.Len())
		}
		for slot, v := range written {
			if tr.Values[slot] != timeseries.Snap(v) {
				t.Fatalf("trial %d: slot %d = %v, want %v", trial, slot, tr.Values[slot], v)
			}
		}
		// Interpolated values stay within the written hull.
		for i, v := range tr.Values {
			if v < timeseries.Snap(minV) || v > timeseries.Snap(maxV) {
				t.Fatalf("trial %d: interpolated value %v at %d outside [%v, %v]", trial, v, i, minV, maxV)
			}
		}
		// Coverage consistency: count of written slots within the reported span.
		cov, err := st.Coverage("x")
		if err != nil {
			t.Fatal(err)
		}
		if cov <= 0 || cov > 1 {
			t.Fatalf("trial %d: coverage %v", trial, cov)
		}
	}
}
