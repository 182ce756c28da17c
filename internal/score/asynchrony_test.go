package score

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// asynchronyOracle is Asynchrony as it stood before the AsynchronyFromSum
// kernel: one pass that checks each trace's peak, then adds it into a clone
// of the first. The property test below pins the kernel and the new
// Asynchrony to it: same value bits, same error text.
func asynchronyOracle(traces ...timeseries.Series) (float64, error) {
	if len(traces) == 0 {
		return 0, ErrNoTraces
	}
	var sumPeaks float64
	agg := traces[0].Clone()
	for i, tr := range traces {
		p := tr.Peak()
		if p <= 0 {
			return 0, fmt.Errorf("%w (index %d)", ErrZeroPeak, i)
		}
		sumPeaks += p
		if i > 0 {
			if err := agg.AddInPlace(tr); err != nil {
				return 0, fmt.Errorf("score: aggregating trace %d: %w", i, err)
			}
		}
	}
	aggPeak := agg.Peak()
	if aggPeak <= 0 {
		return 0, ErrZeroPeak
	}
	return sumPeaks / aggPeak, nil
}

func TestAsynchronyFromSumMatchesOracle(t *testing.T) {
	start := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	step := 10 * time.Minute
	rng := rand.New(rand.NewSource(61))
	random := func(n int) timeseries.Series {
		s := timeseries.Zeros(start, step, n)
		for i := range s.Values {
			s.Values[i] = rng.Float64()*300 + 20
		}
		return s
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	check := func(name string, traces []timeseries.Series) {
		t.Helper()
		want, wantErr := asynchronyOracle(traces...)
		fns := map[string]func() (float64, error){
			"Asynchrony": func() (float64, error) { return Asynchrony(traces...) },
		}
		// The kernel applies wherever the traces sum; its denominator is the
		// peak of that sum.
		if sum, err := timeseries.Sum(traces...); err == nil {
			fns["AsynchronyFromSum"] = func() (float64, error) { return AsynchronyFromSum(sum.Peak(), traces...) }
		}
		for which, f := range fns {
			got, gotErr := f()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: %s = %v (%#x), oracle %v (%#x)", name, which, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if errClass(gotErr) != errClass(wantErr) || errText(gotErr) != errText(wantErr) {
				t.Fatalf("%s: %s error %q, oracle %q", name, which, errText(gotErr), errText(wantErr))
			}
		}
	}
	for iter := 0; iter < 400; iter++ {
		n, length := 1+rng.Intn(24), 1+rng.Intn(300)
		traces := make([]timeseries.Series, n)
		for i := range traces {
			traces[i] = random(length)
		}
		name := fmt.Sprintf("iter %d (%d traces × %d)", iter, n, length)
		check(name, traces)

		// Each fault kind alone, at a random index.
		faults := []struct {
			kind string
			tr   func() timeseries.Series
		}{
			{"zero-peak", func() timeseries.Series { return timeseries.Zeros(start, step, length) }},
			{"negative", func() timeseries.Series { return timeseries.Constant(start, step, length, -3) }},
			{"empty", func() timeseries.Series { return timeseries.Series{Start: start, Step: step} }},
			{"longer", func() timeseries.Series { return random(length + 1) }},
			{"other step", func() timeseries.Series {
				s := random(length)
				s.Step = time.Hour
				return s
			}},
		}
		for _, f := range faults {
			faulty := append([]timeseries.Series(nil), traces...)
			faulty[rng.Intn(n)] = f.tr()
			check(name+" "+f.kind, faulty)
		}
		// Several faults at once: whichever comes first in argument order
		// wins, a trace's peak before its alignment.
		multi := append([]timeseries.Series(nil), traces...)
		for k := 0; k < 1+rng.Intn(3); k++ {
			multi[rng.Intn(n)] = faults[rng.Intn(len(faults))].tr()
		}
		check(name+" multi-fault", multi)
		// A zero-peak, misaligned trace: its peak is reported.
		if n > 1 {
			both := append([]timeseries.Series(nil), traces...)
			both[1+rng.Intn(n-1)] = timeseries.Zeros(start, step, length+2)
			check(name+" zero-peak misaligned", both)
		}
		// Positive trace peaks whose sum never rises above zero.
		if length > 1 {
			up, down := timeseries.Constant(start, step, length, -10), timeseries.Constant(start, step, length, -10)
			up.Values[0], down.Values[length-1] = 5, 5
			check(name+" non-positive sum", []timeseries.Series{up, down})
		}
	}
	check("no traces", nil)
	if _, err := AsynchronyFromSum(1); err != ErrNoTraces {
		t.Fatalf("kernel with no traces: %v, want ErrNoTraces", err)
	}
}

// TestAsynchronyFromSumAllocBudget pins the kernel allocation-free: the drift
// monitor calls it once per scored node.
func TestAsynchronyFromSumAllocBudget(t *testing.T) {
	traces := benchTraces(16, 1008, 1)
	sum, err := timeseries.Sum(traces...)
	if err != nil {
		t.Fatal(err)
	}
	peak := sum.Peak()
	if n := testing.AllocsPerRun(20, func() {
		if _, err := AsynchronyFromSum(peak, traces...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AsynchronyFromSum allocs = %v, want 0", n)
	}
}
