package forecast

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/timeseries"
	"repro/internal/workload"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

// weeksOf builds a history of identical (or linearly scaled) weeks.
func weeksOf(weekVals []float64, scales ...float64) timeseries.Series {
	var vals []float64
	for _, s := range scales {
		for _, v := range weekVals {
			vals = append(vals, v*s)
		}
	}
	step := 7 * 24 * time.Hour / time.Duration(len(weekVals))
	return timeseries.New(t0, step, vals)
}

func TestNextWeekStationary(t *testing.T) {
	week := []float64{10, 20, 30, 20, 10, 5, 15}
	hist := weeksOf(week, 1, 1, 1)
	fc, err := NextWeek(hist)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Len() != len(week) {
		t.Fatalf("forecast len = %d", fc.Len())
	}
	// Identical weeks: the forecast is that week, with no trend to add.
	for i, v := range fc.Values {
		if math.Abs(v-week[i]) > 1e-9 {
			t.Fatalf("stationary forecast at %d = %v, want %v", i, v, week[i])
		}
	}
	// Forecast starts right after the history's whole weeks.
	if !fc.Start.Equal(hist.TimeAt(hist.Len())) {
		t.Fatalf("forecast start = %v", fc.Start)
	}
}

func TestNextWeekEWMAWeight(t *testing.T) {
	week := []float64{10, 10, 10, 10, 10, 10, 10}
	hist := weeksOf(week, 1, 2) // latest week doubled
	fc, err := NextWeek(hist)
	if err != nil {
		t.Fatal(err)
	}
	// EWMA 0.5·10 + 0.5·20 = 15, plus the damped trend 0.5·10 = 5.
	if math.Abs(fc.Values[0]-20) > 1e-9 {
		t.Fatalf("forecast = %v, want 20", fc.Values[0])
	}
}

func TestNextWeekTrend(t *testing.T) {
	week := []float64{10, 10, 10, 10, 10, 10, 10}
	hist := weeksOf(week, 1, 1.5, 2) // +5/week level trend
	fc, err := NextWeek(hist)
	if err != nil {
		t.Fatal(err)
	}
	// EWMA ((10·0.5 + 15·0.5)·0.5 + 20·0.5) = 16.25, plus the damped trend
	// 0.5·5 = 2.5.
	if math.Abs(fc.Values[0]-18.75) > 1e-9 {
		t.Fatalf("trended forecast = %v, want 18.75", fc.Values[0])
	}
	// A falling level never forecasts negative power: the level drops from
	// 10 to 0, so every slot shifts by −5 and the idle slots clamp at 0.
	burst := timeseries.New(t0, 24*time.Hour, []float64{70, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	falling, err := NextWeek(burst)
	if err != nil {
		t.Fatal(err)
	}
	if falling.Values[0] != 30 || falling.Values[1] != 0 {
		t.Fatalf("falling forecast = %v, want 35−5 = 30 then 0", falling.Values[:2])
	}
}

func TestNextWeekErrors(t *testing.T) {
	week := []float64{1, 2, 3, 4, 5, 6, 7}
	short := weeksOf(week, 1)
	if _, err := NextWeek(short); !errors.Is(err, ErrTooShort) {
		t.Fatalf("one week: %v, want ErrTooShort", err)
	}
	if _, err := NextWeek(timeseries.Series{}); err == nil {
		t.Fatal("empty history must error")
	}
}

func TestEvaluate(t *testing.T) {
	pred := timeseries.New(t0, time.Hour, []float64{10, 20})
	actual := timeseries.New(t0, time.Hour, []float64{10, 25})
	acc, err := Evaluate(pred, actual)
	if err != nil {
		t.Fatal(err)
	}
	// MAPE = mean(0, 5/25) = 0.1; RMSE = sqrt(25/2); peak error = -20%.
	if math.Abs(acc.MAPE-0.1) > 1e-9 {
		t.Fatalf("MAPE = %v", acc.MAPE)
	}
	if math.Abs(acc.RMSE-math.Sqrt(12.5)) > 1e-9 {
		t.Fatalf("RMSE = %v", acc.RMSE)
	}
	if math.Abs(acc.PeakErrorPct+20) > 1e-9 {
		t.Fatalf("peak error = %v", acc.PeakErrorPct)
	}
	if _, err := Evaluate(pred, timeseries.New(t0, time.Hour, []float64{1})); err == nil {
		t.Fatal("length mismatch must error")
	}
}

// TestForecastBeatsAverageOnSyntheticFleet: on the standard fleet, the
// forecast predicts the held-out week at least as well as the paper's
// multi-week average (they coincide when the fleet is stationary, and the
// forecast must not be materially worse).
func TestForecastBeatsAverageOnSyntheticFleet(t *testing.T) {
	cfg, err := workload.StandardDCConfig(workload.DC2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Gen.Step = time.Hour
	fleet, err := workload.Generate(cfg.Gen, workload.StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	avg, err := fleet.AveragedITraces(2)
	if err != nil {
		t.Fatal(err)
	}
	test, err := fleet.SplitWeeks(2)
	if err != nil {
		t.Fatal(err)
	}
	weekLen := 7 * 24
	var fcMAPE, avgMAPE float64
	n := 0
	for _, inst := range fleet.Instances {
		hist := inst.Trace.Slice(0, 2*weekLen)
		fc, err := NextWeek(hist)
		if err != nil {
			t.Fatal(err)
		}
		// Align starts for comparison (forecast starts at week 3 already).
		fcAcc, err := Evaluate(fc, test[inst.ID])
		if err != nil {
			t.Fatal(err)
		}
		avgSeries := avg[inst.ID]
		avgAligned := timeseries.New(test[inst.ID].Start, avgSeries.Step, avgSeries.Values)
		avAcc, err := Evaluate(avgAligned, test[inst.ID])
		if err != nil {
			t.Fatal(err)
		}
		fcMAPE += fcAcc.MAPE
		avgMAPE += avAcc.MAPE
		n++
	}
	fcMAPE /= float64(n)
	avgMAPE /= float64(n)
	if fcMAPE > avgMAPE*1.1 {
		t.Fatalf("forecast MAPE %v materially worse than average %v", fcMAPE, avgMAPE)
	}
}
