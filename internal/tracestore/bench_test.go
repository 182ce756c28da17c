package tracestore

import (
	"testing"
	"time"
)

func BenchmarkAppend(b *testing.B) {
	st := New(Config{Step: time.Minute, Retention: 24 * time.Hour})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := t0.Add(time.Duration(i%1440) * time.Minute)
		if err := st.Append("bench", at, float64(i%300)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendSteadyState appends to a full ring, so every reading opens
// a new slot and drops the oldest one.
func BenchmarkAppendSteadyState(b *testing.B) {
	st := New(Config{Step: time.Minute, Retention: 24 * time.Hour})
	for i := 0; i < 1440; i++ {
		if err := st.Append("bench", t0.Add(time.Duration(i)*time.Minute), float64(i%300)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append("bench", t0.Add(time.Duration(1440+i)*time.Minute), float64(i%300)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotDay(b *testing.B) {
	st := New(Config{Step: time.Minute, Retention: 24 * time.Hour})
	for i := 0; i < 1440; i++ {
		if err := st.Append("bench", t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Snapshot("bench", t0, t0.Add(24*time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWeeksStore holds one instance with three weeks of readings at the
// end-to-end benchmark's shape: 30-minute step, impulse rejection on.
func benchWeeksStore(b *testing.B) *Store {
	b.Helper()
	st := New(Config{Step: 30 * time.Minute, RejectImpulses: true})
	for i := 0; i < 3*336; i++ {
		if err := st.Append("bench", t0.Add(time.Duration(i)*30*time.Minute), 200+float64(i%48)); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

func BenchmarkSnapshotQualityWeek(b *testing.B) {
	st := benchWeeksStore(b)
	end := t0.Add(3 * 7 * 24 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.SnapshotQuality("bench", end.Add(-7*24*time.Hour), end); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAveragedITraceQuality(b *testing.B) {
	st := benchWeeksStore(b)
	end := t0.Add(3 * 7 * 24 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.AveragedITraceQuality("bench", end, 2); err != nil {
			b.Fatal(err)
		}
	}
}
