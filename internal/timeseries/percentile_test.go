package timeseries

import (
	"math"
	"math/rand"
	"testing"
)

// TestEmptySeriesStatistics pins the empty-series convention: Peak, Min and
// MeanValue of an empty series are all 0 (never ±Inf), its percentiles are
// NaN, and PeakIndex is -1.
func TestEmptySeriesStatistics(t *testing.T) {
	for name, s := range map[string]Series{
		"zero value": {},
		"nil values": New(t0, Minute, nil),
	} {
		if got := s.Peak(); got != 0 {
			t.Fatalf("%s: Peak = %v, want 0", name, got)
		}
		if got := s.Min(); got != 0 {
			t.Fatalf("%s: Min = %v, want 0", name, got)
		}
		if got := s.MeanValue(); got != 0 {
			t.Fatalf("%s: MeanValue = %v, want 0", name, got)
		}
		if got := s.PeakIndex(); got != -1 {
			t.Fatalf("%s: PeakIndex = %v, want -1", name, got)
		}
		var calc PercentileCalc
		if got := calc.Percentile(s, 50); !math.IsNaN(got) {
			t.Fatalf("%s: Percentile = %v, want NaN", name, got)
		}
	}
}

// TestPercentileCalcMatchesSeries: the buffer-reusing calculator must be
// bit-identical to a fresh one across random series and percentiles,
// including when the buffer shrinks and grows between calls.
func TestPercentileCalcMatchesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var calc PercentileCalc
	for trial := 0; trial < 200; trial++ {
		s := Zeros(t0, Minute, rng.Intn(50)+1)
		for i := range s.Values {
			s.Values[i] = rng.NormFloat64() * 100
		}
		p := rng.Float64() * 100
		want := new(PercentileCalc).Percentile(s, p)
		if got := calc.Percentile(s, p); got != want {
			t.Fatalf("trial %d: calc.Percentile(%v) = %v, want %v", trial, p, got, want)
		}
	}
}

func TestPercentileCalcEmpty(t *testing.T) {
	var calc PercentileCalc
	if got := calc.Percentile(Series{}, 50); !math.IsNaN(got) {
		t.Fatalf("Percentile of empty = %v, want NaN", got)
	}
}

// TestPercentileCalcAllocBudget pins the steady-state allocation count of
// the calculator at zero once its buffer has grown to the series length.
func TestPercentileCalcAllocBudget(t *testing.T) {
	s := benchSeries(MinutesPerWeek, 9)
	var calc PercentileCalc
	calc.Percentile(s, 50) // warm the buffer
	if n := testing.AllocsPerRun(20, func() {
		calc.Percentile(s, 95)
	}); n != 0 {
		t.Fatalf("steady-state PercentileCalc allocs = %v, want 0", n)
	}
}

// TestScratchPoolsKernelsStayIdentical: CrossSectionBands uses pooled
// scratch and FoldWeeksInto a caller's buffer; repeated calls (reusing dirty
// buffers) must reproduce the first call's output bit-for-bit.
func TestScratchPoolsKernelsStayIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pop := make([]Series, 9)
	for i := range pop {
		pop[i] = Zeros(t0, Minute, 40)
		for j := range pop[i].Values {
			pop[i].Values[j] = rng.Float64() * 50
		}
	}
	pairs := [][2]float64{{5, 95}, {25, 75}}
	first, err := CrossSectionBands(pop, pairs)
	if err != nil {
		t.Fatal(err)
	}
	folded := Zeros(t0, Minute, MinutesPerWeek+MinutesPerWeek/2)
	for i := range folded.Values {
		folded.Values[i] = rng.Float64()
	}
	firstFold, err := folded.FoldWeeks()
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		again, err := CrossSectionBands(pop, pairs)
		if err != nil {
			t.Fatal(err)
		}
		for b := range first {
			for i := range first[b].Lo {
				if again[b].Lo[i] != first[b].Lo[i] || again[b].Hi[i] != first[b].Hi[i] {
					t.Fatalf("rep %d: CrossSectionBands drifted at band %d index %d", rep, b, i)
				}
			}
		}
		dirty := make([]float64, 3, MinutesPerWeek+rep)
		for i := range dirty[:cap(dirty)] {
			dirty[:cap(dirty)][i] = rng.Float64()
		}
		againFold, err := folded.FoldWeeksInto(dirty)
		if err != nil {
			t.Fatal(err)
		}
		if &againFold.Values[0] != &dirty[0] {
			t.Fatalf("rep %d: FoldWeeksInto did not write into a buffer that holds a week", rep)
		}
		for i := range firstFold.Values {
			if againFold.Values[i] != firstFold.Values[i] {
				t.Fatalf("rep %d: FoldWeeks drifted at index %d", rep, i)
			}
		}
	}
}
