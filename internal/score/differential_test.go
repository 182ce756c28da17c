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

// FuzzDifferentialBound checks that DifferentialBound is never below
// DifferentialFromSum wherever the kernel returns a value, and never NaN.
// Each byte of cv and sv is one reading: a special value (NaN, ±Inf, ±0,
// the largest and smallest magnitudes) or a multiple of 1/2 in [-4, 120).
// With raw set, each eight bytes are a reading's bits instead. shape can
// stretch sum by a slot, change its step, shift its start or negate n.
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
		series := func(b []byte, start time.Time, step time.Duration, extra int) timeseries.Series {
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
		c := series(cv, start, time.Minute, 0)
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
		sum := series(sv, sumStart, sumStep, extra)
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
