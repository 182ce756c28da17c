package esd_test

import (
	"fmt"
	"time"

	"repro/internal/esd"
	"repro/internal/timeseries"
)

// The §1 argument in two battery runs: a minutes-scale UPS covers a short
// spike but is overwhelmed by an hour-scale diurnal peak.
func ExampleShave() {
	start := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	bat := esd.TypicalUPS(1000, 10) // 10 minutes of autonomy at 1 kW

	// A 5-minute spike of 200 W over budget.
	spike := make([]float64, 30)
	for i := range spike {
		spike[i] = 900
		if i >= 10 && i < 15 {
			spike[i] = 1200
		}
	}
	short, _ := esd.Shave(timeseries.New(start, time.Minute, spike), 1000, bat)

	// A 3-hour peak of 200 W over budget.
	long := make([]float64, 300)
	for i := range long {
		long[i] = 900
		if i >= 60 && i < 240 {
			long[i] = 1200
		}
	}
	sustained, _ := esd.Shave(timeseries.New(start, time.Minute, long), 1000, bat)

	fmt.Println("5-minute spike covered:", short.Covered())
	fmt.Println("3-hour peak covered:  ", sustained.Covered())
	fmt.Println("battery ran dry:      ", sustained.MinChargeWh <= 1e-9)
	// Output:
	// 5-minute spike covered: true
	// 3-hour peak covered:   false
	// battery ran dry:       true
}
