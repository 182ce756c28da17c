package reshape

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/timeseries"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

func TestLearnThreshold(t *testing.T) {
	load := timeseries.New(t0, time.Minute, []float64{0.2, 0.5, 0.82, 0.95, 0.7})
	// Highest load at or below the 0.9 knee is 0.82; 5% margin → 0.779.
	got, err := LearnThreshold(load, 0.9, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.82*0.95) > 1e-9 {
		t.Fatalf("Lconv = %v", got)
	}
}

func TestLearnThresholdColdHistory(t *testing.T) {
	// Training never approached the knee: fall back to knee with margin.
	load := timeseries.New(t0, time.Minute, []float64{0, 0, 0})
	got, err := LearnThreshold(load, 0.9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.81) > 1e-9 {
		t.Fatalf("cold Lconv = %v", got)
	}
}

func TestLearnThresholdErrors(t *testing.T) {
	if _, err := LearnThreshold(timeseries.Series{}, 0.9, 0.05); err != ErrNoHistory {
		t.Fatalf("empty history: %v", err)
	}
	load := timeseries.New(t0, time.Minute, []float64{0.5})
	if _, err := LearnThreshold(load, 0, 0.05); err == nil {
		t.Fatal("zero knee must error")
	}
	if _, err := LearnThreshold(load, 0.9, 1); err == nil {
		t.Fatal("margin 1 must error")
	}
}

func TestStaticLC(t *testing.T) {
	p := StaticLC{Conv: 7}
	act := p.Decide(sim.State{OfferedLoad: 1})
	if act.ConvLC != 7 || act.BatchFreq != 1 {
		t.Fatalf("static action: %+v", act)
	}
	if p.Name() == "" {
		t.Fatal("name")
	}
}

func TestConversionPhases(t *testing.T) {
	p := Conversion{NLC: 100, Pool: 13, Lconv: 0.85}
	// Low load → Batch-heavy: no conversions.
	act := p.Decide(sim.State{OfferedLoad: 40})
	if act.ConvLC != 0 {
		t.Fatalf("batch-heavy action: %+v", act)
	}
	// High load → LC-heavy: converts just enough servers.
	act = p.Decide(sim.State{OfferedLoad: 93})
	if act.ConvLC == 0 {
		t.Fatal("LC-heavy must convert servers")
	}
	if got := float64(93) / float64(100+act.ConvLC); got > 0.85 {
		t.Fatalf("per-server load %v above Lconv after conversion", got)
	}
	// Demand beyond the pool converts the whole pool.
	act = p.Decide(sim.State{OfferedLoad: 300})
	if act.ConvLC != 13 {
		t.Fatalf("saturated pool: %+v", act)
	}
}

func TestConversionHysteresis(t *testing.T) {
	p := Conversion{NLC: 100, Pool: 10, Lconv: 0.8}
	// Load between Lconv·0.95 and Lconv stays converted (LC-heavy).
	act := p.Decide(sim.State{OfferedLoad: 78})
	if act.ConvLC == 0 {
		t.Fatal("load inside hysteresis band should convert")
	}
	act = p.Decide(sim.State{OfferedLoad: 75})
	if act.ConvLC != 0 {
		t.Fatal("load below band should not convert")
	}
}

func TestThrottleBoostPhases(t *testing.T) {
	p := &ThrottleBoost{NLC: 100, NBatch: 50, Pool: 13, ExtraPool: 5, Lconv: 0.85}
	// Batch-heavy with no accumulated deficit: no boost, extra pool idle.
	act := p.Decide(sim.State{OfferedLoad: 40})
	if act.BatchFreq != 1 {
		t.Fatalf("no deficit → no boost: %+v", act)
	}
	if act.ThrottleConvLC != 0 {
		t.Fatal("extra pool must idle in batch-heavy phase")
	}
	// LC-heavy: throttle and draft extra pool once base pool saturates.
	act = p.Decide(sim.State{OfferedLoad: 100})
	if act.BatchFreq >= 1 {
		t.Fatalf("LC-heavy must throttle: %+v", act)
	}
	if act.ConvLC != 13 || act.ThrottleConvLC == 0 {
		t.Fatalf("LC-heavy pools: %+v", act)
	}
	perServer := 100.0 / float64(100+act.ConvLC+act.ThrottleConvLC)
	if perServer > 0.85 {
		t.Fatalf("per-server load %v above Lconv", perServer)
	}
	// Back to batch-heavy with deficit: boost until repaid, then nominal.
	act = p.Decide(sim.State{OfferedLoad: 40})
	if act.BatchFreq <= 1 {
		t.Fatalf("deficit must trigger boost: %+v", act)
	}
	for i := 0; i < 100 && p.deficit > 0; i++ {
		act = p.Decide(sim.State{OfferedLoad: 40})
	}
	act = p.Decide(sim.State{OfferedLoad: 40})
	if act.BatchFreq != 1 {
		t.Fatalf("repaid deficit must end boosting: %+v", act)
	}
}

func TestThrottleBoostRepaysDeficit(t *testing.T) {
	// One throttled step at freq 0.7 loses NBatch·0.3 work; boosting at 1.15
	// repays NBatch·0.15 per step, so two boosted steps repay one throttled.
	p := &ThrottleBoost{NLC: 10, NBatch: 20, Pool: 2, ExtraPool: 1, Lconv: 0.8}
	p.Decide(sim.State{OfferedLoad: 10}) // LC-heavy: throttle
	if p.deficit <= 0 {
		t.Fatal("throttling must accumulate deficit")
	}
	d0 := p.deficit
	p.Decide(sim.State{OfferedLoad: 1}) // batch-heavy: boost
	if p.deficit >= d0 {
		t.Fatal("boosting must repay deficit")
	}
}

// endToEnd runs the full Fig. 12/13 scenario: a baseline fleet, then the
// same fleet with extra traffic and a reshaping policy.
func endToEnd(t *testing.T, nConv, nExtra int, policy sim.Policy, peakLoad float64) *sim.Result {
	t.Helper()
	cfg := sim.Config{
		LCLoad: diurnal(7*24, time.Hour, peakLoad),
		NLC:    100, NBatch: 50, NConv: nConv, NThrottleConv: nExtra,
		LCServer:    sim.ServerModel{Idle: 90, Peak: 300},
		BatchServer: sim.ServerModel{Idle: 140, Peak: 310},
		Freq:        sim.DefaultDVFS,
		Budget:      1e9,
		Lconv:       0.85,
		QoSKnee:     0.9,
		Policy:      policy,
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func diurnal(n int, step time.Duration, peak float64) timeseries.Series {
	s := timeseries.Zeros(t0, step, n)
	for i := 0; i < n; i++ {
		hour := float64(t0.Add(time.Duration(i) * step).Hour())
		d := math.Abs(hour - 15)
		if d > 12 {
			d = 24 - d
		}
		act := 0.35 + 0.65*math.Exp(-0.5*(d/4)*(d/4))
		s.Values[i] = act * peak
	}
	return s
}

func TestConversionBeatsStaticLC(t *testing.T) {
	// Both serve grown traffic (13 extra servers' worth). Conversion should
	// match StaticLC on LC throughput while adding Batch work off-peak —
	// the Fig. 12/13 result.
	peak := float64(113) * 0.85
	static := endToEnd(t, 13, 0, StaticLC{Conv: 13}, peak)
	conv := endToEnd(t, 13, 0, Conversion{NLC: 100, Pool: 13, Lconv: 0.85}, peak)

	if conv.TotalLC < static.TotalLC*0.999 {
		t.Fatalf("conversion LC throughput %v below static %v", conv.TotalLC, static.TotalLC)
	}
	if conv.TotalBatch <= static.TotalBatch {
		t.Fatalf("conversion batch %v must beat static %v", conv.TotalBatch, static.TotalBatch)
	}
	if conv.QoSViolations != 0 {
		t.Fatalf("conversion QoS violations: %d", conv.QoSViolations)
	}
	// Against the pre-SmoothOperator baseline, both improvements are positive.
	baseline := endToEnd(t, 0, 0, StaticLC{}, 100*0.85)
	imp := sim.Compare(baseline, conv)
	if imp.LCPct < 5 || imp.BatchPct < 3 {
		t.Fatalf("conversion improvement too small: %+v", imp)
	}
}

func TestThrottleBoostAddsLCCapacity(t *testing.T) {
	// Throttle/boost hosts 5 extra servers and serves even more traffic.
	peakConv := float64(113) * 0.85
	peakTB := float64(118) * 0.85
	conv := endToEnd(t, 13, 0, Conversion{NLC: 100, Pool: 13, Lconv: 0.85}, peakConv)
	tb := endToEnd(t, 13, 5, &ThrottleBoost{NLC: 100, NBatch: 50, Pool: 13, ExtraPool: 5, Lconv: 0.85}, peakTB)

	if tb.TotalLC <= conv.TotalLC {
		t.Fatalf("throttle/boost LC %v must beat conversion %v", tb.TotalLC, conv.TotalLC)
	}
	if tb.QoSViolations != 0 {
		t.Fatalf("throttle/boost QoS violations: %d", tb.QoSViolations)
	}
	baseline := endToEnd(t, 0, 0, StaticLC{}, 100*0.85)
	impTB := sim.Compare(baseline, tb)
	impConv := sim.Compare(baseline, conv)
	if impTB.LCPct <= impConv.LCPct {
		t.Fatalf("LC improvements: tb %+v vs conv %+v", impTB, impConv)
	}
	// Boost repays throttled batch work: batch should not collapse.
	if impTB.BatchPct < 0 {
		t.Fatalf("throttle/boost batch regression: %+v", impTB)
	}
}

func TestReshapingReducesSlack(t *testing.T) {
	// Fig. 14: reshaping raises off-peak draw (batch work on conversion
	// servers), reducing power slack versus the pre-SmoothOperator fleet.
	budget := 75000.0
	baseline := endToEnd(t, 0, 0, StaticLC{}, 100*0.85)
	conv := endToEnd(t, 13, 0, Conversion{NLC: 100, Pool: 13, Lconv: 0.85}, float64(113)*0.85)
	baseSlack := budget*float64(baseline.Power.Len()) - baseline.Power.Total()
	convSlack := budget*float64(conv.Power.Len()) - conv.Power.Total()
	if convSlack >= baseSlack {
		t.Fatalf("reshaping must reduce energy slack: %v vs %v", convSlack, baseSlack)
	}
}
