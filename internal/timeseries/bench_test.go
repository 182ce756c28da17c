package timeseries

import (
	"math/rand"
	"testing"
	"time"
)

func benchSeries(n int, seed int64) Series {
	rng := rand.New(rand.NewSource(seed))
	s := Zeros(t0, Minute, n)
	for i := range s.Values {
		s.Values[i] = rng.Float64() * 300
	}
	return s
}

func BenchmarkAddInPlaceWeek(b *testing.B) {
	x := benchSeries(MinutesPerWeek, 1)
	y := benchSeries(MinutesPerWeek, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.AddInPlace(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeakWeek(b *testing.B) {
	s := benchSeries(MinutesPerWeek, 3)
	b.ReportAllocs()
	b.ResetTimer()
	var p float64
	for i := 0; i < b.N; i++ {
		p = s.Peak()
	}
	_ = p
}

func BenchmarkPercentileCalcWeek(b *testing.B) {
	s := benchSeries(MinutesPerWeek, 4)
	var calc PercentileCalc
	calc.Percentile(s, 50) // warm the sort buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = calc.Percentile(s, 95)
	}
}

func BenchmarkFoldThreeWeeks(b *testing.B) {
	s := benchSeries(3*MinutesPerWeek, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FoldWeeks(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossSectionBands(b *testing.B) {
	pop := make([]Series, 64)
	for i := range pop {
		pop[i] = benchSeries(24*60, int64(i))
	}
	pairs := [][2]float64{{5, 95}, {25, 75}, {45, 55}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossSectionBands(pop, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResampleWeekTo10m(b *testing.B) {
	s := benchSeries(MinutesPerWeek, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Resample(10 * time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
