package tracestore

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// appendRetentions are the ring sizes the Append benchmarks run at: one day
// and the store's default retention, both at the paper's 1-minute step.
var appendRetentions = []struct {
	name      string
	retention time.Duration
}{
	{"1440_slots", 24 * time.Hour},
	{"default_retention", 0},
}

func BenchmarkAppend(b *testing.B) {
	for _, rc := range appendRetentions {
		b.Run(rc.name, func(b *testing.B) {
			st := New(Config{Step: time.Minute, Retention: rc.retention})
			slots := int(st.Retention() / time.Minute)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := t0.Add(time.Duration(i%slots) * time.Minute)
				if err := st.Append("bench", at, float64(i%300)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendSteadyState appends to a full ring, so every reading opens
// a new slot and drops the oldest one.
func BenchmarkAppendSteadyState(b *testing.B) {
	for _, rc := range appendRetentions {
		b.Run(rc.name, func(b *testing.B) {
			st := New(Config{Step: time.Minute, Retention: rc.retention})
			slots := int(st.Retention() / time.Minute)
			for i := 0; i < slots; i++ {
				if err := st.Append("bench", t0.Add(time.Duration(i)*time.Minute), float64(i%300)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Append("bench", t0.Add(time.Duration(slots+i)*time.Minute), float64(i%300)); err != nil {
					b.Fatal(err)
				}
			}
		})
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
		if _, _, err := st.SnapshotQuality("bench", t0, t0.Add(24*time.Hour)); err != nil {
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

// BenchmarkSnapshotQualityBatch reads 2,000 one-week windows at the
// end-to-end benchmark's shape as one batch, at the default worker count and
// at one worker, against 2,000 SnapshotQuality calls.
func BenchmarkSnapshotQualityBatch(b *testing.B) {
	st := New(Config{Step: 30 * time.Minute, RejectImpulses: true})
	ids := make([]string, 2000)
	for k := range ids {
		ids[k] = fmt.Sprintf("i%04d", k)
		for i := 0; i < 3*336; i++ {
			if err := st.Append(ids[k], t0.Add(time.Duration(i)*30*time.Minute), 200+float64((i+k)%48)); err != nil {
				b.Fatal(err)
			}
		}
	}
	end := t0.Add(3 * 7 * 24 * time.Hour)
	from := end.Add(-7 * 24 * time.Hour)
	visit := func(int, timeseries.Series, Quality) {}
	for _, workers := range []int{0, 1} {
		b.Run(fmt.Sprintf("batch_workers_%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.SnapshotQualityBatch(ids, from, end, workers, visit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("single_reads", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				if _, _, err := st.SnapshotQuality(id, from, end); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// Replay-shaped ingest: fleetIDs instances at a 30-minute step, 4-week
// rings, fed instance-major one day at a time.
const (
	fleetIDs    = 10000
	fleetDay    = 48
	fleetFilled = 4 * 7 * fleetDay
)

// fleetStore returns a store whose fleetIDs rings already hold four weeks
// of readings, the ids, and one day of readings per id (fleetDay each).
func fleetStore(b *testing.B) (*Store, []string, []float64) {
	b.Helper()
	st := New(Config{Step: 30 * time.Minute, Retention: 4 * 7 * 24 * time.Hour})
	ids := make([]string, fleetIDs)
	history := make([]float64, fleetFilled)
	for i := range history {
		history[i] = 200 + float64(i%fleetDay)
	}
	for k := range ids {
		ids[k] = fmt.Sprintf("i%05d", k)
		if err := st.AppendRun(ids[k], t0, history); err != nil {
			b.Fatal(err)
		}
	}
	return st, ids, history[:fleetDay]
}

// BenchmarkAppendFleet ingests whole fleet-days through Append, reading by
// reading, into full rings.
func BenchmarkAppendFleet(b *testing.B) {
	st, ids, day := fleetStore(b)
	times := make([]time.Time, fleetDay)
	b.ReportAllocs()
	b.ResetTimer()
	for d := 0; d < b.N; d++ {
		for i := range times {
			times[i] = t0.Add(time.Duration(fleetFilled+d*fleetDay+i) * 30 * time.Minute)
		}
		for _, id := range ids {
			for i, w := range day {
				if err := st.Append(id, times[i], w); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fleetIDs*fleetDay), "ns/reading")
}

// BenchmarkAppendRunDay ingests the same fleet-days as BenchmarkAppendFleet,
// one AppendRun per instance-day.
func BenchmarkAppendRunDay(b *testing.B) {
	st, ids, day := fleetStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for d := 0; d < b.N; d++ {
		start := t0.Add(time.Duration(fleetFilled+d*fleetDay) * 30 * time.Minute)
		for _, id := range ids {
			if err := st.AppendRun(id, start, day); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fleetIDs*fleetDay), "ns/reading")
}
