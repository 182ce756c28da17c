// Package timeseries implements the power-trace vector type used throughout
// the SmoothOperator reproduction.
//
// The paper (§3.3) represents every instance power trace (I-trace) and
// service power trace (S-trace) as a fixed-interval time series — "a vector,
// containing seven days of the exact power reading recorded by the power
// sensor on the corresponding machine, one reading per minute" — and relies
// on plain vector arithmetic (sums, averages across weeks, peaks) for all of
// its scoring and placement machinery. This package provides that vector
// type plus the statistics (peaks, percentiles, percentile bands, energy
// integrals) the evaluation section needs.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Common errors returned by series operations.
var (
	ErrEmpty       = errors.New("timeseries: empty series")
	ErrLenMismatch = errors.New("timeseries: length mismatch")
	ErrStepInvalid = errors.New("timeseries: step must be positive")
	ErrMisaligned  = errors.New("timeseries: series are not time-aligned")
)

// Series is a fixed-interval time series of power readings (watts, or any
// consistent unit). Values[0] is the reading at Start; Values[i] is the
// reading at Start + i*Step.
//
// The zero value is an empty series; most operations on it return ErrEmpty.
type Series struct {
	// Start is the timestamp of Values[0].
	Start time.Time
	// Step is the sampling interval. It must be positive for a valid series.
	Step time.Duration
	// Values holds one reading per interval.
	Values []float64
}

// Minute is the sampling interval used by the paper's traces.
const Minute = time.Minute

// MinutesPerWeek is the length of a 7-day, one-reading-per-minute trace.
const MinutesPerWeek = 7 * 24 * 60

// New returns a Series with the given start, step and values. The values
// slice is used directly (not copied).
func New(start time.Time, step time.Duration, values []float64) Series {
	return Series{Start: start, Step: step, Values: values}
}

// Zeros returns a Series of n zero readings with the given start and step.
func Zeros(start time.Time, step time.Duration, n int) Series {
	return Series{Start: start, Step: step, Values: make([]float64, n)}
}

// Constant returns a Series of n readings all equal to v.
func Constant(start time.Time, step time.Duration, n int, v float64) Series {
	s := Zeros(start, step, n)
	for i := range s.Values {
		s.Values[i] = v
	}
	return s
}

// Len reports the number of readings.
func (s Series) Len() int { return len(s.Values) }

// Empty reports whether the series holds no readings.
func (s Series) Empty() bool { return len(s.Values) == 0 }

// Validate checks the structural invariants of the series.
func (s Series) Validate() error {
	if s.Step <= 0 {
		return ErrStepInvalid
	}
	if len(s.Values) == 0 {
		return ErrEmpty
	}
	for i, v := range s.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("timeseries: non-finite value %v at index %d", v, i)
		}
	}
	return nil
}

// TimeAt returns the timestamp of reading i.
func (s Series) TimeAt(i int) time.Time { return s.Start.Add(time.Duration(i) * s.Step) }

// Within returns the index range [lo, hi) of the readings timed in
// [from, to).
func (s Series) Within(from, to time.Time) (lo, hi int) {
	lo = s.firstAtOrAfter(from)
	return lo, max(lo, s.firstAtOrAfter(to))
}

// firstAtOrAfter is the index of the first reading timed at or after t,
// Len() when there is none.
func (s Series) firstAtOrAfter(t time.Time) int {
	d := t.Sub(s.Start)
	if d <= 0 || s.Step <= 0 {
		return 0
	}
	i := d / s.Step
	if d%s.Step != 0 {
		i++
	}
	return int(min(i, time.Duration(len(s.Values))))
}

// Clone returns a deep copy of the series.
func (s Series) Clone() Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return Series{Start: s.Start, Step: s.Step, Values: v}
}

// Slice returns the sub-series covering readings [i, j). The underlying
// values are shared with the receiver.
func (s Series) Slice(i, j int) Series {
	return Series{Start: s.TimeAt(i), Step: s.Step, Values: s.Values[i:j]}
}

// alignedWith reports whether two series can take part in element-wise
// arithmetic: same length and same step. Start times may differ by design:
// the paper folds traces onto time-of-week, so two traces from different
// weeks are still combinable element-wise.
func (s Series) alignedWith(o Series) error {
	if len(s.Values) != len(o.Values) {
		return ErrLenMismatch
	}
	if s.Step != o.Step {
		return ErrMisaligned
	}
	return nil
}

// AddInPlace accumulates o into s element-wise.
func (s *Series) AddInPlace(o Series) error {
	if err := s.alignedWith(o); err != nil {
		return err
	}
	sv := s.Values[:len(o.Values)] // one bounds check for the loop
	for i, v := range o.Values {
		sv[i] += v
	}
	return nil
}

// Sub returns the element-wise difference s - o.
func (s Series) Sub(o Series) (Series, error) {
	if err := s.alignedWith(o); err != nil {
		return Series{}, err
	}
	out := s.Clone()
	for i, v := range o.Values {
		out.Values[i] -= v
	}
	return out, nil
}

// Scale returns the series multiplied element-wise by k.
func (s Series) Scale(k float64) Series {
	out := s.Clone()
	for i := range out.Values {
		out.Values[i] *= k
	}
	return out
}

// Sum returns the element-wise sum of the given series. All series must be
// aligned. Sum of zero series returns ErrEmpty.
func Sum(series ...Series) (Series, error) {
	if len(series) == 0 {
		return Series{}, ErrEmpty
	}
	out := series[0].Clone()
	for _, o := range series[1:] {
		if err := out.AddInPlace(o); err != nil {
			return Series{}, err
		}
	}
	return out, nil
}

// Mean returns the element-wise mean of the given series. This implements
// the paper's Eq. 4 (averaged I-trace across weeks) and Eq. 5 (S-trace as
// the mean of a service's averaged I-traces).
func Mean(series ...Series) (Series, error) {
	sum, err := Sum(series...)
	if err != nil {
		return Series{}, err
	}
	return sum.Scale(1 / float64(len(series))), nil
}

// Snap rounds a reading to the scoring grid: the nearest multiple of
// 2⁻²⁰ W, ties to even. Sums of readings on the grid are exact below
// 2³³ W, so they have the same bits in any order. Snap is idempotent;
// readings of 2³² W or more (and ±Inf, NaN) are returned as they are,
// since float64 spacing there is 2⁻²⁰ or coarser.
func Snap(x float64) float64 {
	// Below 2³¹, x + 1.5·2³² lies in [2³², 2³³), where float64 spacing is
	// 2⁻²⁰: the add rounds x to the grid, ties to even, and the subtract
	// is exact.
	const shift = 0x1.8p32
	switch a := math.Abs(x); {
	case a < 0x1p31:
		return float64(x+shift) - shift
	case a < 0x1p32:
		return math.RoundToEven(x*0x1p20) / 0x1p20
	}
	return x
}

// SnapAll snaps every value in place (Snap).
func SnapAll(vals []float64) {
	for i, v := range vals {
		vals[i] = Snap(v)
	}
}

// Peak returns the maximum reading, or 0 when the series is empty. It
// implements peak(P) from Eq. 6. The empty-series convention matches
// MeanValue and Min: statistics of an empty series are 0, never ±Inf, so a
// node hosting no traced instances reads as drawing no power rather than
// propagating infinities into downstream arithmetic.
func (s Series) Peak() float64 {
	if s.Empty() {
		return 0
	}
	max := math.Inf(-1)
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// PeakIndex returns the index of the first maximum reading, or -1 when empty.
func (s Series) PeakIndex() int {
	idx, max := -1, math.Inf(-1)
	for i, v := range s.Values {
		if v > max {
			max, idx = v, i
		}
	}
	return idx
}

// Min returns the minimum reading, or 0 when the series is empty (the same
// empty-series convention as Peak and MeanValue).
func (s Series) Min() float64 {
	if s.Empty() {
		return 0
	}
	min := math.Inf(1)
	for _, v := range s.Values {
		if v < min {
			min = v
		}
	}
	return min
}

// MeanValue returns the arithmetic mean of the readings, or 0 when the
// series is empty (the same empty-series convention as Peak and Min).
func (s Series) MeanValue() float64 {
	if s.Empty() {
		return 0
	}
	var t float64
	for _, v := range s.Values {
		t += v
	}
	return t / float64(len(s.Values))
}

// Total returns the sum of the readings.
func (s Series) Total() float64 {
	var t float64
	for _, v := range s.Values {
		t += v
	}
	return t
}

func percentileOfSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Band is one percentile band of a cross-sectional distribution, as drawn in
// the paper's Fig. 6 ("the bands indicate the percentiles of the power
// reading among all the servers hosting that service").
type Band struct {
	// LoPct and HiPct are the percentile bounds, e.g. 5 and 95.
	LoPct, HiPct float64
	// Lo and Hi are the per-timestep band edges; both have the length of the
	// input series.
	Lo, Hi []float64
}

// CrossSectionBands computes, for each time step, the given percentile bands
// across a population of aligned series. pairs lists (lo, hi) percentile
// pairs, e.g. {{5, 95}, {25, 75}}.
func CrossSectionBands(population []Series, pairs [][2]float64) ([]Band, error) {
	if len(population) == 0 {
		return nil, ErrEmpty
	}
	n := population[0].Len()
	for _, s := range population {
		if err := population[0].alignedWith(s); err != nil {
			return nil, err
		}
	}
	bands := make([]Band, len(pairs))
	for b := range bands {
		bands[b] = Band{
			LoPct: pairs[b][0], HiPct: pairs[b][1],
			Lo: make([]float64, n), Hi: make([]float64, n),
		}
	}
	columnBuf := getScratchF64(len(population))
	defer putScratchF64(columnBuf)
	column := *columnBuf
	for t := 0; t < n; t++ {
		for i, s := range population {
			column[i] = s.Values[t]
		}
		sort.Float64s(column)
		for b := range bands {
			bands[b].Lo[t] = percentileOfSorted(column, bands[b].LoPct)
			bands[b].Hi[t] = percentileOfSorted(column, bands[b].HiPct)
		}
	}
	return bands, nil
}

// Resample returns the series resampled to a new step by block-averaging
// (when newStep is a multiple of Step) or by nearest-neighbour lookup
// otherwise. The new series starts at the same instant.
func (s Series) Resample(newStep time.Duration) (Series, error) {
	if newStep <= 0 || s.Step <= 0 {
		return Series{}, ErrStepInvalid
	}
	if s.Empty() {
		return Series{}, ErrEmpty
	}
	if newStep == s.Step {
		return s.Clone(), nil
	}
	if newStep%s.Step == 0 {
		block := int(newStep / s.Step)
		n := len(s.Values) / block
		if n == 0 {
			n = 1
		}
		out := Zeros(s.Start, newStep, n)
		for i := 0; i < n; i++ {
			lo := i * block
			hi := lo + block
			if hi > len(s.Values) {
				hi = len(s.Values)
			}
			var sum float64
			for _, v := range s.Values[lo:hi] {
				sum += v
			}
			out.Values[i] = sum / float64(hi-lo)
		}
		return out, nil
	}
	span := time.Duration(len(s.Values)) * s.Step
	n := int(span / newStep)
	if n == 0 {
		n = 1
	}
	out := Zeros(s.Start, newStep, n)
	for i := 0; i < n; i++ {
		j := int(time.Duration(i) * newStep / s.Step)
		if j >= len(s.Values) {
			j = len(s.Values) - 1
		}
		out.Values[i] = s.Values[j]
	}
	return out, nil
}

// FoldWeeks averages a multi-week series onto a single 7-day,
// time-of-week-aligned series (Eq. 4). The series must cover at least one
// whole week at its native step; a trailing partial week is included in the
// average of the slots it covers.
func (s Series) FoldWeeks() (Series, error) { return s.FoldWeeksInto(nil) }

// FoldWeeksInto is FoldWeeks writing the folded week into dst's backing
// array when its capacity holds one week of slots (a new array otherwise).
// dst must not overlap the series' values.
func (s Series) FoldWeeksInto(dst []float64) (Series, error) {
	if s.Step <= 0 {
		return Series{}, ErrStepInvalid
	}
	weekLen := int(7 * 24 * time.Hour / s.Step)
	if weekLen == 0 || len(s.Values) < weekLen {
		return Series{}, fmt.Errorf("timeseries: FoldWeeks needs ≥1 week of data (%d < %d readings)", len(s.Values), weekLen)
	}
	if cap(dst) < weekLen {
		dst = make([]float64, weekLen)
	}
	sums := dst[:weekLen]
	clear(sums)
	for i, v := range s.Values {
		sums[i%weekLen] += v
	}
	// Slot i of the week is covered once per whole week, and once more when
	// the trailing partial week reaches it.
	whole, partial := len(s.Values)/weekLen, len(s.Values)%weekLen
	for i := range sums {
		n := whole
		if i < partial {
			n++
		}
		sums[i] /= float64(n)
	}
	return Series{Start: s.Start, Step: s.Step, Values: sums}, nil
}

// NormalizeTo returns the series scaled so its peak equals the given value.
// A series with a non-positive peak is returned unchanged.
func (s Series) NormalizeTo(peak float64) Series {
	p := s.Peak()
	if p <= 0 {
		return s.Clone()
	}
	return s.Scale(peak / p)
}

// Correlation returns the Pearson correlation coefficient between two
// aligned series, used by tests and diagnostics to confirm (a)synchrony.
func Correlation(a, b Series) (float64, error) {
	if err := a.alignedWith(b); err != nil {
		return 0, err
	}
	if a.Empty() {
		return 0, ErrEmpty
	}
	ma, mb := a.MeanValue(), b.MeanValue()
	var num, da, db float64
	for i := range a.Values {
		x, y := a.Values[i]-ma, b.Values[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0, nil
	}
	return num / math.Sqrt(da*db), nil
}

// String summarises the series for debugging.
func (s Series) String() string {
	if s.Empty() {
		return "Series(empty)"
	}
	return fmt.Sprintf("Series(n=%d step=%s peak=%.3f mean=%.3f)",
		len(s.Values), s.Step, s.Peak(), s.MeanValue())
}
