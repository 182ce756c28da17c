package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// despikeEager is despike as it was before copy-on-clamp: copy first, then
// clamp every impulse against the unmodified input. It is the reference the
// lazy copy must reproduce bit for bit.
func despikeEager(tr timeseries.Series) timeseries.Series {
	v := tr.Values
	if len(v) < 3 {
		return tr
	}
	cleaned := append([]float64(nil), v...)
	for i := range v {
		var m float64
		switch i {
		case 0:
			m = v[1]
		case len(v) - 1:
			m = v[len(v)-2]
		default:
			m = math.Max(v[i-1], v[i+1])
		}
		if cleaned[i] > 2*m {
			cleaned[i] = m
		}
	}
	return timeseries.New(tr.Start, tr.Step, cleaned)
}

// cleanWeek is a smooth 336-slot (one week at 30 minutes) diurnal trace.
func cleanWeek() timeseries.Series {
	vals := make([]float64, 336)
	for i := range vals {
		vals[i] = 200 + 80*math.Sin(2*math.Pi*float64(i)/48)
	}
	return timeseries.New(time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC), 30*time.Minute, vals)
}

func TestDespikeCleanTraceIsFree(t *testing.T) {
	tr := cleanWeek()
	if got := despike(tr); &got.Values[0] != &tr.Values[0] {
		t.Fatal("clean trace was copied")
	}
	if allocs := testing.AllocsPerRun(100, func() { despike(tr) }); allocs != 0 {
		t.Fatalf("despike allocates %v times on a clean trace", allocs)
	}
}

// TestDespikeMatchesEagerCopy pins copy-on-clamp to the eager copy on
// impulses at the first slot, in the middle, at the last slot and next to
// signed-zero neighbours, plus seeded random spike patterns, and checks the
// input is never written.
func TestDespikeMatchesEagerCopy(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := map[string][]float64{
		"first":             {900, 100, 101, 102},
		"middle":            {100, 101, 900, 102, 103},
		"last":              {100, 101, 102, 900},
		"adjacent":          {100, 900, 900, 100},
		"zero neighbours":   {0, 5, negZero, 7, 0},
		"-0 beside +0":      {negZero, 0, negZero, 1e-300, 0},
		"all zero":          {0, negZero, 0},
		"too short":         {1, 900},
		"clean":             {100, 110, 120, 130},
		"spike to infinity": {100, math.Inf(1), 100},
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 50; k++ {
		vals := cleanWeek().Values
		for j := rng.Intn(6); j > 0; j-- {
			i := rng.Intn(len(vals))
			switch rng.Intn(3) {
			case 0:
				vals[i] *= 3 + 5*rng.Float64()
			case 1:
				vals[i] = 0
			case 2:
				vals[i] = negZero
			}
		}
		cases[fmt.Sprintf("random %d", k)] = vals
	}
	start := time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)
	for name, vals := range cases {
		in := timeseries.New(start, time.Minute, vals)
		orig := append([]float64(nil), vals...)
		got, want := despike(in), despikeEager(in)
		if len(got.Values) != len(want.Values) || !got.Start.Equal(want.Start) || got.Step != want.Step {
			t.Fatalf("%s: shape %v/%v/%d, eager %v/%v/%d", name, got.Start, got.Step, got.Len(), want.Start, want.Step, want.Len())
		}
		for i := range got.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%s: slot %d = %v, eager %v", name, i, got.Values[i], want.Values[i])
			}
			if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("%s: input slot %d mutated to %v", name, i, vals[i])
			}
		}
	}
}

var despikeSink timeseries.Series

func BenchmarkDespike(b *testing.B) {
	clean := cleanWeek()
	spiky := cleanWeek()
	spiky.Values[100] *= 4
	for _, bc := range []struct {
		name string
		tr   timeseries.Series
	}{{"clean", clean}, {"spiky", spiky}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				despikeSink = despike(bc.tr)
			}
		})
	}
}
