package score

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

func benchTraces(n, length int, seed int64) []timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	out := make([]timeseries.Series, n)
	for i := range out {
		s := timeseries.Zeros(start, 10*time.Minute, length)
		for j := range s.Values {
			s.Values[j] = rng.Float64()*200 + 50
		}
		out[i] = s
	}
	return out
}

func BenchmarkAsynchrony16(b *testing.B) {
	traces := benchTraces(16, 1008, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Asynchrony(traces...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVectorB10(b *testing.B) {
	traces := benchTraces(11, 1008, 2)
	inst, basis := traces[0], traces[1:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Vector(inst, basis); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBasisVectorInto(b *testing.B) {
	traces := benchTraces(11, 1008, 2)
	inst, straces := traces[0], traces[1:]
	basis, err := NewBasis(straces)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, basis.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := basis.VectorInto(dst, inst); err != nil {
			b.Fatal(err)
		}
	}
}
