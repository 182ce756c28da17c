package repro_test

import (
	"fmt"
	"math"
	"time"

	"repro"
)

// Operating the runtime under injected telemetry faults: readings pass
// through a seeded fault injector on their way into the trace store, and
// an instance that goes dark is quarantined and scored from its service's
// reference trace instead of failing the tick.
func Example_degradedTelemetry() {
	tree, err := repro.BuildTree(repro.TopologySpec{
		Name: "dc", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 500,
	})
	if err != nil {
		panic(err)
	}
	// Spiking sensors are filtered in the store, before gap repair; the
	// runtime scores what the store returns.
	store := repro.NewTraceStore(repro.TraceStoreConfig{
		Step: time.Hour, Retention: 4 * 7 * 24 * time.Hour, RejectImpulses: true,
	})
	injector, err := repro.NewFaultInjector(repro.LightFaults(42), time.Hour, tree)
	if err != nil {
		panic(err)
	}
	fw := repro.New(repro.Config{TopServices: 2, Seed: 1})
	rt, err := repro.NewRuntime(fw, store, tree, repro.RuntimeConfig{Faults: injector})
	if err != nil {
		panic(err)
	}

	// Three weeks of hourly telemetry for four instances; instance "d"
	// goes completely dark for the third (test) week.
	instances := []repro.Instance{
		{ID: "a", Service: "web"}, {ID: "b", Service: "web"},
		{ID: "c", Service: "db"}, {ID: "d", Service: "db"},
	}
	epoch := time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)
	for idx, inst := range instances {
		phase := float64(idx) * math.Pi / 3
		for s := 0; s < 3*168; s++ {
			if inst.ID == "d" && s >= 2*168 {
				continue
			}
			watts := 80 + 40*math.Sin(2*math.Pi*float64(s%168)/168+phase)
			if err := rt.Ingest(inst.ID, epoch.Add(time.Duration(s)*time.Hour), watts); err != nil {
				panic(err)
			}
		}
	}

	trainEnd := epoch.Add(2 * 7 * 24 * time.Hour)
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		panic(err)
	}
	rep, err := rt.Tick(trainEnd.Add(7*24*time.Hour), 0)
	if err != nil {
		panic(err)
	}

	fmt.Println("quarantined:", rep.Quarantined)
	quality, _ := rt.InstanceQuality("d")
	fmt.Println("grade for d:", quality.Grade)
	fmt.Println("tick survived degradation:", rep.SumOfPeaks > 0)
	// Output:
	// quarantined: [d]
	// grade for d: no-data
	// tick survived degradation: true
}
