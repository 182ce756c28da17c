package forecast_test

import (
	"fmt"
	"time"

	"repro/internal/forecast"
	"repro/internal/timeseries"
)

// Forecasting a trending fleet: an even blend of the two weeks plus half
// the week-over-week level trend.
func ExampleNextWeek() {
	start := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	// Two weeks at one reading per day; the second week runs 7 W hotter.
	vals := []float64{
		100, 110, 120, 110, 100, 90, 95, // week 1
		107, 117, 127, 117, 107, 97, 102, // week 2
	}
	history := timeseries.New(start, 24*time.Hour, vals)

	fc, err := forecast.NextWeek(history)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Monday forecast: %.0f\n", fc.Values[0])
	fmt.Printf("Wednesday forecast: %.0f\n", fc.Values[2])
	// Output:
	// Monday forecast: 107
	// Wednesday forecast: 127
}
