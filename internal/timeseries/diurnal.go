package timeseries

import (
	"fmt"
	"math"
	"time"
)

// DiurnalStats summarises a trace's daily rhythm — the quantities the
// workload characterization of §2.3 reads off Fig. 6: when a service peaks,
// how strongly it swings, and how repeatable its days are.
type DiurnalStats struct {
	// PeakHour is the mean hour-of-day of the daily maximum, on the
	// 24-hour circle.
	PeakHour float64
	// SwingRatio is (mean daily max − mean daily min) / mean daily max;
	// 0 for a flat trace, →1 for a deeply diurnal one.
	SwingRatio float64
	// DayToDayCorrelation is the mean Pearson correlation between
	// consecutive days — high for repeatable diurnal workloads.
	DayToDayCorrelation float64
}

// Diurnal computes daily-rhythm statistics over whole days of the series.
// The series must cover at least one whole day; a trailing partial day is
// ignored.
func (s Series) Diurnal() (DiurnalStats, error) {
	if s.Step <= 0 {
		return DiurnalStats{}, ErrStepInvalid
	}
	perDay := int(24 * time.Hour / s.Step)
	if perDay == 0 || s.Len() < perDay {
		return DiurnalStats{}, fmt.Errorf("timeseries: Diurnal needs ≥1 whole day (%d < %d readings)", s.Len(), perDay)
	}
	days := s.Len() / perDay
	var maxSum, minSum float64
	// Circular mean of the peak positions.
	var peakSin, peakCos float64
	var corrSum float64
	corrN := 0
	var prev Series
	for d := 0; d < days; d++ {
		day := s.Slice(d*perDay, (d+1)*perDay)
		maxI, minI := 0, 0
		for i, v := range day.Values {
			if v > day.Values[maxI] {
				maxI = i
			}
			if v < day.Values[minI] {
				minI = i
			}
		}
		maxSum += day.Values[maxI]
		minSum += day.Values[minI]
		peakAt := day.TimeAt(maxI)
		pa := (float64(peakAt.Hour()) + float64(peakAt.Minute())/60) / 24 * 2 * math.Pi
		peakSin += math.Sin(pa)
		peakCos += math.Cos(pa)
		if d > 0 {
			if r, err := Correlation(prev, day); err == nil {
				corrSum += r
				corrN++
			}
		}
		prev = day
	}
	var stats DiurnalStats
	meanMax := maxSum / float64(days)
	meanMin := minSum / float64(days)
	if meanMax > 0 {
		stats.SwingRatio = (meanMax - meanMin) / meanMax
	}
	stats.PeakHour = circularHour(peakSin, peakCos)
	if corrN > 0 {
		stats.DayToDayCorrelation = corrSum / float64(corrN)
	}
	return stats, nil
}

func circularHour(sinSum, cosSum float64) float64 {
	h := math.Atan2(sinSum, cosSum) / (2 * math.Pi) * 24
	if h < 0 {
		h += 24
	}
	return h
}
