package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC) // a Monday, like the paper's traces

func mk(vals ...float64) Series { return New(t0, Minute, vals) }

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Series
		ok   bool
	}{
		{"valid", mk(1, 2, 3), true},
		{"empty", New(t0, Minute, nil), false},
		{"zero step", New(t0, 0, []float64{1}), false},
		{"negative step", New(t0, -Minute, []float64{1}), false},
		{"nan", mk(1, math.NaN()), false},
		{"inf", mk(math.Inf(1)), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.s.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestTimeIndexRoundTrip(t *testing.T) {
	s := Zeros(t0, Minute, 100)
	for _, i := range []int{0, 1, 50, 99, 100} {
		if got := s.TimeAt(i); !got.Equal(t0.Add(time.Duration(i) * Minute)) {
			t.Fatalf("TimeAt(%d) = %v", i, got)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a, b := mk(1, 2, 3), mk(10, 20, 30)
	sum := a.Clone()
	if err := sum.AddInPlace(b); err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	for i, v := range sum.Values {
		if v != want[i] {
			t.Fatalf("Add mismatch at %d: %v", i, sum.Values)
		}
	}
	diff, err := sum.Sub(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range diff.Values {
		if v != a.Values[i] {
			t.Fatalf("Sub mismatch at %d: %v", i, diff.Values)
		}
	}
	sc := a.Scale(2)
	if sc.Values[2] != 6 {
		t.Fatalf("Scale: %v", sc.Values)
	}
	// The inputs must not be mutated.
	if a.Values[0] != 1 || b.Values[0] != 10 {
		t.Fatal("inputs mutated")
	}
}

func TestAddMismatch(t *testing.T) {
	a, b := mk(1, 2), mk(1, 2, 3)
	if err := a.AddInPlace(b); err != ErrLenMismatch {
		t.Fatalf("want ErrLenMismatch, got %v", err)
	}
	c := New(t0, 2*Minute, []float64{1, 2})
	if err := a.AddInPlace(c); err != ErrMisaligned {
		t.Fatalf("want ErrMisaligned, got %v", err)
	}
}

func TestSumMean(t *testing.T) {
	if _, err := Sum(); err != ErrEmpty {
		t.Fatalf("Sum() of nothing: %v", err)
	}
	m, err := Mean(mk(1, 3), mk(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if m.Values[0] != 2 || m.Values[1] != 4 {
		t.Fatalf("Mean: %v", m.Values)
	}
}

// TestSnap pins the scoring grid's rounding: nearest multiple of 2⁻²⁰,
// ties to even, on both sides of the 2³¹ switch between the shift and the
// scaled round, and identity from 2³² up. Every result is a fixed point,
// and sampled readings agree with the scaled round.
func TestSnap(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{
		{0, 0},
		{0x1p-21, 0},             // tie: 0 is even
		{3 * 0x1p-21, 0x1p-19},   // tie: 2 grid steps, not 1
		{-3 * 0x1p-21, -0x1p-19}, // and symmetric
		{1 + 0x1p-20 + 0x1p-22, 1 + 0x1p-20},
		{math.Nextafter(0x1p31, 0), 0x1p31},           // 2³¹ − 1 ulp
		{math.Nextafter(0x1p31, math.Inf(1)), 0x1p31}, // 2³¹ + 1 ulp = 2³¹ + 2⁻²¹: a tie
		{0x1p31 + 3*0x1p-21, 0x1p31 + 0x1p-19},        // a tie above 2³¹
		{math.Nextafter(0x1p32, 0), 0x1p32},           // 2³² − 1 ulp = 2³² − 2⁻²¹: a tie
		{0x1p32, 0x1p32},
		{math.MaxFloat64, math.MaxFloat64},
	} {
		if got := Snap(c.x); got != c.want {
			t.Errorf("Snap(%b) = %b, want %b", c.x, got, c.want)
		}
		if got := Snap(Snap(c.x)); got != Snap(c.x) {
			t.Errorf("Snap(%b) is not a fixed point: %b", Snap(c.x), got)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		x := math.Ldexp(rng.Float64(), rng.Intn(60)-20)
		if got, want := Snap(x), math.RoundToEven(x*0x1p20)/0x1p20; got != want {
			t.Fatalf("Snap(%b) = %b, want %b", x, got, want)
		}
	}
	if !math.IsNaN(Snap(math.NaN())) || !math.IsInf(Snap(math.Inf(-1)), -1) {
		t.Error("Snap must pass NaN and ±Inf through")
	}
}

func TestPeakMinMeanEnergy(t *testing.T) {
	s := mk(2, 8, 4, 6)
	if s.Peak() != 8 {
		t.Fatalf("Peak = %v", s.Peak())
	}
	if s.PeakIndex() != 1 {
		t.Fatalf("PeakIndex = %v", s.PeakIndex())
	}
	if s.Min() != 2 {
		t.Fatalf("Min = %v", s.Min())
	}
	if s.MeanValue() != 5 {
		t.Fatalf("Mean = %v", s.MeanValue())
	}
	// 20 value-minutes = 1/3 value-hour.
	if e := s.Total() * s.Step.Hours(); math.Abs(e-20.0/60.0) > 1e-12 {
		t.Fatalf("Energy = %v", e)
	}
}

func TestPercentile(t *testing.T) {
	s := mk(1, 2, 3, 4, 5)
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {105, 5},
	}
	var calc PercentileCalc
	for _, c := range cases {
		if got := calc.Percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := mk(0, 10)
	var calc PercentileCalc
	if got := calc.Percentile(s, 50); got != 5 {
		t.Fatalf("Percentile(50) of {0,10} = %v, want 5", got)
	}
}

func TestCrossSectionBands(t *testing.T) {
	pop := []Series{mk(0, 0), mk(5, 10), mk(10, 20)}
	bands, err := CrossSectionBands(pop, [][2]float64{{0, 100}, {25, 75}})
	if err != nil {
		t.Fatal(err)
	}
	if bands[0].Lo[1] != 0 || bands[0].Hi[1] != 20 {
		t.Fatalf("outer band: %+v", bands[0])
	}
	if bands[1].Lo[0] != 2.5 || bands[1].Hi[0] != 7.5 {
		t.Fatalf("inner band: lo=%v hi=%v", bands[1].Lo[0], bands[1].Hi[0])
	}
	if _, err := CrossSectionBands(nil, nil); err != ErrEmpty {
		t.Fatalf("empty population: %v", err)
	}
}

func TestResampleBlockAverage(t *testing.T) {
	s := mk(1, 3, 5, 7)
	r, err := s.Resample(2 * Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Values[0] != 2 || r.Values[1] != 6 {
		t.Fatalf("Resample: %v", r.Values)
	}
	if r.Step != 2*Minute {
		t.Fatalf("step: %v", r.Step)
	}
	same, err := s.Resample(Minute)
	if err != nil || same.Len() != 4 {
		t.Fatalf("identity resample: %v %v", same, err)
	}
	if _, err := s.Resample(0); err != ErrStepInvalid {
		t.Fatalf("zero step: %v", err)
	}
}

func TestFoldWeeks(t *testing.T) {
	// Two weeks at 1-hour resolution: week 1 all 1s, week 2 all 3s.
	weekLen := 7 * 24
	vals := make([]float64, 2*weekLen)
	for i := range vals {
		if i < weekLen {
			vals[i] = 1
		} else {
			vals[i] = 3
		}
	}
	s := New(t0, time.Hour, vals)
	folded, err := s.FoldWeeks()
	if err != nil {
		t.Fatal(err)
	}
	if folded.Len() != weekLen {
		t.Fatalf("folded len = %d", folded.Len())
	}
	for i, v := range folded.Values {
		if v != 2 {
			t.Fatalf("fold at %d = %v, want 2", i, v)
		}
	}
	// Too short must error.
	short := New(t0, time.Hour, make([]float64, weekLen-1))
	if _, err := short.FoldWeeks(); err == nil {
		t.Fatal("FoldWeeks on partial week must fail")
	}
}

func TestFoldWeeksPartialTail(t *testing.T) {
	weekLen := 7 * 24
	vals := make([]float64, weekLen+10)
	for i := range vals {
		vals[i] = 1
		if i >= weekLen {
			vals[i] = 5
		}
	}
	s := New(t0, time.Hour, vals)
	folded, err := s.FoldWeeks()
	if err != nil {
		t.Fatal(err)
	}
	// First 10 slots saw (1+5)/2 = 3; the rest saw 1.
	if folded.Values[0] != 3 || folded.Values[10] != 1 {
		t.Fatalf("partial tail fold: %v %v", folded.Values[0], folded.Values[10])
	}
}

// TestFoldWeeksMatchesCountingFold pins FoldWeeks to the fold that counts
// each slot's contributions as it sums them, bit for bit, over whole and
// partial trailing weeks and signed zeros.
func TestFoldWeeksMatchesCountingFold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weekLen := 7 * 24
	for _, n := range []int{weekLen, weekLen + 1, 2*weekLen - 1, 2 * weekLen, 3*weekLen + 17} {
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(10) {
			case 0:
				vals[i] = math.Copysign(0, -1)
			case 1:
				vals[i] = 0
			default:
				vals[i] = rng.Float64() * 300
			}
		}
		sums, counts := make([]float64, weekLen), make([]int, weekLen)
		for i, v := range vals {
			sums[i%weekLen] += v
			counts[i%weekLen]++
		}
		folded, err := New(t0, time.Hour, vals).FoldWeeks()
		if err != nil {
			t.Fatal(err)
		}
		for i := range sums {
			if want := sums[i] / float64(counts[i]); math.Float64bits(folded.Values[i]) != math.Float64bits(want) {
				t.Fatalf("%d readings: slot %d = %v, want %v", n, i, folded.Values[i], want)
			}
		}
	}
}

func TestNormalizeTo(t *testing.T) {
	s := mk(1, 2, 4)
	n := s.NormalizeTo(1)
	if n.Peak() != 1 || n.Values[0] != 0.25 {
		t.Fatalf("NormalizeTo: %v", n.Values)
	}
	z := mk(0, 0)
	if got := z.NormalizeTo(1); got.Peak() != 0 {
		t.Fatal("zero series should be unchanged")
	}
}

func TestCorrelation(t *testing.T) {
	a := mk(1, 2, 3, 4)
	b := mk(2, 4, 6, 8)
	c := mk(4, 3, 2, 1)
	if r, _ := Correlation(a, b); math.Abs(r-1) > 1e-12 {
		t.Fatalf("corr(a,b) = %v", r)
	}
	if r, _ := Correlation(a, c); math.Abs(r+1) > 1e-12 {
		t.Fatalf("corr(a,c) = %v", r)
	}
	flat := mk(5, 5, 5, 5)
	if r, _ := Correlation(a, flat); r != 0 {
		t.Fatalf("corr with flat = %v", r)
	}
}

func TestSliceSharesData(t *testing.T) {
	s := mk(1, 2, 3, 4)
	sub := s.Slice(1, 3)
	if sub.Len() != 2 || sub.Values[0] != 2 {
		t.Fatalf("Slice: %v", sub.Values)
	}
	if !sub.Start.Equal(t0.Add(Minute)) {
		t.Fatalf("Slice start: %v", sub.Start)
	}
	sub.Values[0] = 99
	if s.Values[1] != 99 {
		t.Fatal("Slice must share backing data")
	}
	cl := s.Clone()
	cl.Values[0] = -1
	if s.Values[0] == -1 {
		t.Fatal("Clone must not share backing data")
	}
}

// TestWithinMatchesTimeFilter: Within returns exactly the indices whose
// times pass from ≤ t < to, for bounds on, between, before and after the
// readings, reversed, and far enough out to saturate a Duration.
func TestWithinMatchesTimeFilter(t *testing.T) {
	s := mk(1, 2, 3, 4, 5)
	far := t0.AddDate(400, 0, 0)
	bounds := []time.Time{t0.AddDate(-400, 0, 0), t0.Add(-Minute), t0, t0.Add(30 * time.Second), t0.Add(2 * Minute), t0.Add(5 * Minute), t0.Add(9 * Minute), far}
	for _, from := range bounds {
		for _, to := range bounds {
			lo, hi := s.Within(from, to)
			for i := 0; i < s.Len(); i++ {
				at := s.TimeAt(i)
				if want := !at.Before(from) && at.Before(to); want != (lo <= i && i < hi) {
					t.Fatalf("Within(%v, %v) = [%d, %d), reading %d at %v in the window: %v", from, to, lo, hi, i, at, want)
				}
			}
			if lo > hi || hi > s.Len() {
				t.Fatalf("Within(%v, %v) = [%d, %d)", from, to, lo, hi)
			}
		}
	}
}

// Property: peak is subadditive — peak(a+b) ≤ peak(a)+peak(b). This is the
// fact that makes the asynchrony score (Eq. 6) ≥ 1.
func TestPeakSubadditivityProperty(t *testing.T) {
	f := func(raw [8]float64, raw2 [8]float64) bool {
		a, b := Zeros(t0, Minute, 8), Zeros(t0, Minute, 8)
		for i := 0; i < 8; i++ {
			a.Values[i] = math.Abs(math.Mod(raw[i], 1000))
			b.Values[i] = math.Abs(math.Mod(raw2[i], 1000))
		}
		sum := a.Clone()
		if err := sum.AddInPlace(b); err != nil {
			return false
		}
		return sum.Peak() <= a.Peak()+b.Peak()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean of k copies of a series is the series itself.
func TestMeanIdempotentProperty(t *testing.T) {
	f := func(raw [6]float64, kRaw uint8) bool {
		k := int(kRaw%5) + 1
		s := Zeros(t0, Minute, 6)
		for i := range s.Values {
			s.Values[i] = math.Mod(raw[i], 1e6)
			if math.IsNaN(s.Values[i]) {
				s.Values[i] = 0
			}
		}
		copies := make([]Series, k)
		for i := range copies {
			copies[i] = s
		}
		m, err := Mean(copies...)
		if err != nil {
			return false
		}
		for i := range m.Values {
			if math.Abs(m.Values[i]-s.Values[i]) > 1e-9*(1+math.Abs(s.Values[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		n := rng.Intn(50) + 1
		s := Zeros(t0, Minute, n)
		for i := range s.Values {
			s.Values[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		var calc PercentileCalc
		for p := 0.0; p <= 100; p += 7 {
			v := calc.Percentile(s, p)
			if v < prev-1e-9 || v < s.Min()-1e-9 || v > s.Peak()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	for i := 0; i < 200; i++ {
		if !f() {
			t.Fatal("percentile monotonicity violated")
		}
	}
}

func TestStringForms(t *testing.T) {
	if got := (Series{}).String(); got != "Series(empty)" {
		t.Fatalf("empty String = %q", got)
	}
	s := mk(1, 2)
	if s.String() == "" {
		t.Fatal("String must be non-empty")
	}
}
