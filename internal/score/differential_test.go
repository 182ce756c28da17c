package score

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// differentialOracle is Differential as it stood before the fused kernel:
// materialise the peer average with timeseries.Mean, then score the pair. The
// property test below pins DifferentialFromSum to it bit for bit.
func differentialOracle(instance timeseries.Series, peers []timeseries.Series) (float64, error) {
	if len(peers) == 0 {
		return 0, ErrNoTraces
	}
	avg, err := timeseries.Mean(peers...)
	if err != nil {
		return 0, fmt.Errorf("score: averaging %d peers: %w", len(peers), err)
	}
	return Pairwise(instance, avg)
}

// errClass maps an error onto the named error callers match with errors.Is.
func errClass(err error) error {
	for _, class := range []error{ErrNoTraces, ErrZeroPeak, timeseries.ErrLenMismatch, timeseries.ErrMisaligned} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

func TestDifferentialFromSumMatchesOracle(t *testing.T) {
	start := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(36))
	random := func(n int, step time.Duration) timeseries.Series {
		s := timeseries.Zeros(start, step, n)
		for i := range s.Values {
			s.Values[i] = rng.Float64()*300 + 20
		}
		return s
	}
	check := func(name string, inst timeseries.Series, peers []timeseries.Series) {
		t.Helper()
		want, wantErr := differentialOracle(inst, peers)
		sum, err := timeseries.Sum(peers...)
		if err != nil {
			t.Fatalf("%s: summing peers: %v", name, err)
		}
		for which, f := range map[string]func() (float64, error){
			"DifferentialFromSum": func() (float64, error) { return DifferentialFromSum(inst, sum, len(peers)) },
			"Differential":        func() (float64, error) { return Differential(inst, peers) },
		} {
			got, gotErr := f()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: %s = %v (%#x), oracle %v (%#x)", name, which, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if errClass(gotErr) != errClass(wantErr) {
				t.Fatalf("%s: %s error %v, oracle %v", name, which, gotErr, wantErr)
			}
		}
	}
	for iter := 0; iter < 400; iter++ {
		n, length := 1+rng.Intn(40), 1+rng.Intn(400)
		step := 10 * time.Minute
		peers := make([]timeseries.Series, n)
		for i := range peers {
			peers[i] = random(length, step)
		}
		inst := random(length, step)
		name := fmt.Sprintf("iter %d (%d peers × %d)", iter, n, length)
		check(name, inst, peers)

		withZero := append([]timeseries.Series{}, peers...)
		withZero[rng.Intn(n)] = timeseries.Zeros(start, step, length)
		check(name+" zero peer", inst, withZero)

		check(name+" zero-peak instance", timeseries.Zeros(start, step, length), peers)
		check(name+" negative instance", timeseries.Constant(start, step, length, -3), peers)

		allZero := make([]timeseries.Series, n)
		for i := range allZero {
			allZero[i] = timeseries.Zeros(start, step, length)
		}
		check(name+" zero-peak sum", inst, allZero)

		// Misaligned instances: the peaks are still checked first, so a
		// zero-peak side wins over the alignment error.
		longer, otherStep := random(length+1, step), random(length, time.Hour)
		check(name+" longer instance", longer, peers)
		check(name+" other step", otherStep, peers)
		check(name+" longer instance, zero-peak sum", longer, allZero)
		check(name+" empty instance", timeseries.Series{Step: step}, peers)

		if _, err := DifferentialFromSum(inst, peers[0], 0); err != ErrNoTraces {
			t.Fatalf("%s: n = 0: %v, want ErrNoTraces", name, err)
		}
	}
	// Misaligned peers fail in the summing half, before the kernel runs.
	bad := []timeseries.Series{random(8, time.Hour), random(9, time.Hour)}
	_, wantErr := differentialOracle(random(8, time.Hour), bad)
	if _, err := Differential(random(8, time.Hour), bad); errClass(err) != errClass(wantErr) || err == nil {
		t.Fatalf("misaligned peers: %v, oracle %v", err, wantErr)
	}
}

// TestDifferentialFromSumAllocBudget pins the kernel allocation-free: an
// admission calls it once per candidate leaf.
func TestDifferentialFromSumAllocBudget(t *testing.T) {
	traces := benchTraces(17, 1008, 5)
	inst, peers := traces[0], traces[1:]
	sum, err := timeseries.Sum(peers...)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := DifferentialFromSum(inst, sum, len(peers)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DifferentialFromSum allocs = %v, want 0", n)
	}
}

func BenchmarkDifferentialFromSum(b *testing.B) {
	traces := benchTraces(17, 1008, 5)
	inst, peers := traces[0], traces[1:]
	sum, err := timeseries.Sum(peers...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DifferentialFromSum(inst, sum, len(peers)); err != nil {
			b.Fatal(err)
		}
	}
}

// fuzzSeries decodes a fuzz input into a series: each byte of b is one
// reading, a special value (NaN, ±Inf, ±0, the largest and smallest
// magnitudes) or a multiple of 1/2 in [-4, 120); with raw set, each eight
// bytes are a reading's bits instead. extra appends that many 1 W readings.
func fuzzSeries(b []byte, raw bool, start time.Time, step time.Duration, extra int) timeseries.Series {
	s := timeseries.Series{Start: start, Step: step}
	if raw {
		for ; len(b) >= 8; b = b[8:] {
			s.Values = append(s.Values, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
	} else {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64}
		for _, x := range b {
			if int(x) < len(specials) {
				s.Values = append(s.Values, specials[x])
			} else {
				s.Values = append(s.Values, float64(int(x)-8)/2-4)
			}
		}
	}
	for ; extra > 0; extra-- {
		s.Values = append(s.Values, 1)
	}
	return s
}

// rawReadings encodes readings for fuzzSeries' raw mode.
func rawReadings(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzDifferentialBound checks that DifferentialBound is never below
// DifferentialFromSum wherever the kernel returns a value, and never NaN.
// cv and sv decode through fuzzSeries. shape can stretch sum by a slot,
// change its step, shift its start or negate n.
func FuzzDifferentialBound(f *testing.F) {
	f.Add([]byte{100, 120, 90}, []byte{100, 120, 90}, 1, uint8(0), false)   // peaks in one slot: the bound is exact
	f.Add([]byte{40, 120, 60}, []byte{120, 40, 60, 80}, 3, uint8(0), false) // peaks apart
	f.Add([]byte{60, 70, 80, 90}, []byte{90, 80, 70, 60}, 2, uint8(0), false)
	f.Add([]byte{0, 120, 1, 90}, []byte{120, 2, 90, 3}, 2, uint8(0), false) // NaN and ±Inf readings
	f.Add([]byte{10, 20, 30}, []byte{5, 6, 7}, 4, uint8(0), false)          // zero and negative readings
	f.Add([]byte{100, 120}, []byte{100, 120}, 0, uint8(0), false)           // n = 0
	f.Add([]byte{100, 120}, []byte{100, 120}, 2, uint8(1), false)           // lengths differ
	f.Add([]byte{100, 120}, []byte{100, 120}, 2, uint8(2), false)           // steps differ
	f.Add([]byte{100, 120}, []byte{100, 120}, 2, uint8(4), false)           // starts differ
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, []byte{1, 0, 0, 0, 0, 0, 0, 0}, 1, uint8(0), true)
	f.Fuzz(func(t *testing.T, cv, sv []byte, n int, shape uint8, raw bool) {
		start := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
		c := fuzzSeries(cv, raw, start, time.Minute, 0)
		sumStep, sumStart, extra := time.Minute, start, 0
		if shape&1 != 0 {
			extra = 1
		}
		if shape&2 != 0 {
			sumStep = time.Hour
		}
		if shape&4 != 0 {
			sumStart = start.Add(time.Minute)
		}
		sum := fuzzSeries(sv, raw, sumStart, sumStep, extra)
		if shape&8 != 0 {
			n = -n
		}
		b := DifferentialBound(&c, c.PeakIndex(), &sum, sum.PeakIndex(), n)
		if math.IsNaN(b) {
			t.Fatalf("bound is NaN for %v against %v / %d", c.Values, sum.Values, n)
		}
		if d, err := DifferentialFromSum(c, sum, n); err == nil && b < d {
			t.Fatalf("bound %v below differential %v for %v against %v / %d", b, d, c.Values, sum.Values, n)
		}
	})
}

// FuzzDifferentialBelow checks that DifferentialBelow is exact: where it
// answers (a finite bound, a finite incumbent > 0) it returns a slot in
// range exactly when DifferentialFromSum succeeds with a score below the
// incumbent, and elsewhere it returns −1. Each input is tried against the
// given incumbent and against the exact score and its two neighbouring
// floats, the incumbents where a threshold one ulp off or a > in place of
// ≥ would answer wrongly. cv and sv decode through fuzzSeries; n may be
// anything; each hint byte is a slot, as a signed byte, so hints may be
// negative, out of range or repeated.
func FuzzDifferentialBelow(f *testing.F) {
	f.Add([]byte{40, 120, 60}, []byte{120, 40, 60, 80}, 3, 1.2, []byte{}, false)
	f.Add([]byte{60, 70, 80, 90}, []byte{90, 80, 70, 60}, 2, 1.9, []byte{3, 3, 200, 1}, false)
	f.Add([]byte{100, 120, 90}, []byte{100, 120, 90}, 1, 2.0, []byte{2}, false)
	f.Add([]byte{0, 120, 1, 90, 100}, []byte{120, 2, 90, 3, 110}, 2, 1.5, []byte{0, 1, 4}, false) // NaN and ±Inf readings
	f.Add([]byte{10, 20, 30, 50}, []byte{5, 6, 7, 60}, 4, 1.1, []byte{255, 128}, false)           // zero and negative readings
	f.Add([]byte{100, 120}, []byte{100, 120}, 2, math.Inf(1), []byte{}, false)
	f.Add([]byte{100, 120}, []byte{100, 120}, 2, math.NaN(), []byte{}, false)
	f.Add([]byte{100, 120}, []byte{100, 120}, 2, -1.0, []byte{}, false)
	f.Add([]byte{100, 120}, []byte{100, 120}, 0, 1.0, []byte{}, false)
	f.Add([]byte{100, 120}, []byte{100, 120}, 3, 1e-300, []byte{}, false) // the threshold overflows
	f.Add([]byte{100, 120}, []byte{100, 120}, 3, 1e300, []byte{}, false)  // the threshold underflows
	// The joint peak 2 + 2⁻⁵¹ falls on the slot neither peak is at, and
	// equals the threshold for incumbent 1.5 = 3/2 exactly.
	f.Add(rawReadings(1, 0, 0x1p-51), rawReadings(0.5, 2, 2), 1, 1.5, []byte{}, true)
	f.Fuzz(func(t *testing.T, cv, sv []byte, n int, incumbent float64, hb []byte, raw bool) {
		start := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
		c := fuzzSeries(cv, raw, start, time.Minute, 0)
		sum := fuzzSeries(sv, raw, start, time.Minute, 0)
		hint := make([]int, len(hb))
		for i, x := range hb {
			hint[i] = int(int8(x))
		}
		cSlot, sumSlot := c.PeakIndex(), sum.PeakIndex()
		d, err := DifferentialFromSum(c, sum, n)
		incumbents := []float64{incumbent}
		if err == nil {
			incumbents = append(incumbents, d, math.Nextafter(d, math.Inf(1)), math.Nextafter(d, math.Inf(-1)))
		}
		answers := !math.IsInf(DifferentialBound(&c, cSlot, &sum, sumSlot, n), 1)
		for _, inc := range incumbents {
			slot := DifferentialBelow(&c, cSlot, &sum, sumSlot, n, inc, hint)
			switch {
			case slot >= c.Len() || slot < -1:
				t.Fatalf("slot %d out of range for %v", slot, c.Values)
			case slot >= 0 && (err != nil || !(d < inc)):
				t.Fatalf("below %v at slot %d, but the differential is %v (%v) for %v against %v / %d",
					inc, slot, d, err, c.Values, sum.Values, n)
			case slot == -1 && answers && inc > 0 && !math.IsInf(inc, 1) && (err != nil || d < inc):
				t.Fatalf("no answer for %v, but the differential is %v (%v) for %v against %v / %d",
					inc, d, err, c.Values, sum.Values, n)
			case slot >= 0 && !(answers && inc > 0 && !math.IsInf(inc, 1)):
				t.Fatalf("answered %d where the bound is infinite or incumbent %v is out of range", slot, inc)
			}
		}
	})
}
