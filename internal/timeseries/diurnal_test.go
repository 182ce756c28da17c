package timeseries

import (
	"math"
	"testing"
	"time"
)

// sineDay renders n days of a sinusoid peaking at the given hour.
func sineDay(days int, step time.Duration, peakHour float64) Series {
	perDay := int(24 * time.Hour / step)
	s := Zeros(t0, step, days*perDay)
	for i := range s.Values {
		t := s.TimeAt(i)
		h := float64(t.Hour()) + float64(t.Minute())/60
		s.Values[i] = 100 + 50*math.Cos((h-peakHour)/24*2*math.Pi)
	}
	return s
}

// hourDistance returns the circular distance between two hours-of-day, in
// [0, 12].
func hourDistance(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 24)
	if d > 12 {
		d = 24 - d
	}
	return d
}

func TestDiurnalStats(t *testing.T) {
	s := sineDay(3, 30*time.Minute, 15)
	stats, err := s.Diurnal()
	if err != nil {
		t.Fatal(err)
	}
	if hourDistance(stats.PeakHour, 15) > 0.75 {
		t.Fatalf("peak hour = %v, want ≈15", stats.PeakHour)
	}
	// Swing: (150−50)/150 ≈ 0.667.
	if math.Abs(stats.SwingRatio-100.0/150) > 0.01 {
		t.Fatalf("swing = %v", stats.SwingRatio)
	}
	// Identical days correlate perfectly.
	if stats.DayToDayCorrelation < 0.999 {
		t.Fatalf("day-to-day correlation = %v", stats.DayToDayCorrelation)
	}
}

func TestDiurnalFlatTrace(t *testing.T) {
	s := Constant(t0, time.Hour, 48, 100)
	stats, err := s.Diurnal()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SwingRatio != 0 {
		t.Fatalf("flat swing = %v", stats.SwingRatio)
	}
}

func TestDiurnalMidnightPeakWraps(t *testing.T) {
	// Peak at 23:30-ish must not average to noon.
	s := sineDay(2, 30*time.Minute, 23.5)
	stats, err := s.Diurnal()
	if err != nil {
		t.Fatal(err)
	}
	if hourDistance(stats.PeakHour, 23.5) > 1 {
		t.Fatalf("wrapped peak hour = %v", stats.PeakHour)
	}
}

func TestDiurnalErrors(t *testing.T) {
	short := Zeros(t0, time.Hour, 10)
	if _, err := short.Diurnal(); err == nil {
		t.Fatal("partial day must error")
	}
	bad := Series{Step: 0, Values: []float64{1}}
	if _, err := bad.Diurnal(); err != ErrStepInvalid {
		t.Fatalf("zero step: %v", err)
	}
}

func TestHourDistance(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0}, {1, 23, 2}, {12, 0, 12}, {15, 3, 12}, {14, 16, 2}, {23.5, 0.5, 1},
	}
	for _, c := range cases {
		if got := hourDistance(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("hourDistance(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
