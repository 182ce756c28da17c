// Package forecast predicts next-week power traces from history — the
// concrete form of Table 1's "proactive planning" checkbox. The paper
// places instances using the *average* of past weeks (Eq. 4); forecasting
// sharpens that: a seasonal-naive base (same time-of-week, latest week)
// blended with the multi-week mean by an EWMA weight, plus a linear
// week-over-week trend on the weekly mean level.
//
// The placement pipeline can run on forecast traces instead of averaged
// I-traces; for stationary fleets the two coincide, and under trend or
// drift the forecast tracks the level the test week will actually show.
package forecast

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/timeseries"
)

const (
	// alpha is the EWMA weight on the most recent week (0 would be the
	// plain mean of history, 1 seasonal naive).
	alpha = 0.5
	// trendDamping scales the extrapolated week-over-week level trend
	// (0 would disable the trend, 1 apply it fully).
	trendDamping = 0.5
)

// ErrTooShort rejects a history shorter than two whole weeks.
var ErrTooShort = errors.New("forecast: history must cover ≥2 whole weeks")

// NextWeek forecasts the week following the history. The history must span
// at least two whole weeks at its native step; a trailing partial week is
// ignored. The returned series starts where the last whole week ended.
func NextWeek(history timeseries.Series) (timeseries.Series, error) {
	if history.Step <= 0 {
		return timeseries.Series{}, timeseries.ErrStepInvalid
	}
	weekLen := int(7 * 24 * time.Hour / history.Step)
	weeks := history.Len() / weekLen
	if weekLen == 0 || weeks < 2 {
		return timeseries.Series{}, fmt.Errorf("%w (have %d readings, week is %d)", ErrTooShort, history.Len(), weekLen)
	}
	// EWMA over time-of-week slots, oldest week first so the newest week
	// carries weight alpha.
	values := make([]float64, weekLen)
	first := history.Slice(0, weekLen)
	copy(values, first.Values)
	var levels []float64
	levels = append(levels, first.MeanValue())
	for w := 1; w < weeks; w++ {
		week := history.Slice(w*weekLen, (w+1)*weekLen)
		for i := range values {
			values[i] = (1-alpha)*values[i] + alpha*week.Values[i]
		}
		levels = append(levels, week.MeanValue())
	}

	// Week-over-week level trend (mean of successive differences), damped.
	var trend float64
	for i := 1; i < len(levels); i++ {
		trend += levels[i] - levels[i-1]
	}
	trend /= float64(len(levels) - 1)
	shift := trendDamping * trend
	for i := range values {
		v := values[i] + shift
		if v < 0 {
			v = 0
		}
		values[i] = v
	}

	start := history.Start.Add(time.Duration(weeks*weekLen) * history.Step)
	return timeseries.New(start, history.Step, values), nil
}

// Accuracy reports forecast error against an actual week.
type Accuracy struct {
	// MAPE is the mean absolute percentage error over non-zero actuals.
	MAPE float64
	// RMSE is the root mean squared error.
	RMSE float64
	// PeakErrorPct is the relative error of the predicted peak — the
	// quantity provisioning actually cares about.
	PeakErrorPct float64
}

// Evaluate compares a forecast with the realized week.
func Evaluate(predicted, actual timeseries.Series) (Accuracy, error) {
	if predicted.Len() != actual.Len() || predicted.Len() == 0 {
		return Accuracy{}, timeseries.ErrLenMismatch
	}
	var apeSum float64
	apeN := 0
	var sqSum float64
	for i := range actual.Values {
		d := predicted.Values[i] - actual.Values[i]
		sqSum += d * d
		if actual.Values[i] != 0 {
			apeSum += math.Abs(d) / math.Abs(actual.Values[i])
			apeN++
		}
	}
	acc := Accuracy{RMSE: math.Sqrt(sqSum / float64(actual.Len()))}
	if apeN > 0 {
		acc.MAPE = apeSum / float64(apeN)
	}
	if ap := actual.Peak(); ap != 0 {
		acc.PeakErrorPct = 100 * (predicted.Peak() - ap) / ap
	}
	return acc, nil
}
