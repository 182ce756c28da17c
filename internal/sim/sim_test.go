package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/timeseries"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

func TestServerModel(t *testing.T) {
	m := ServerModel{Idle: 100, Peak: 300}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Power(0) != 100 || m.Power(1) != 300 || m.Power(0.5) != 200 {
		t.Fatal("linear power model broken")
	}
	if m.Power(-1) != 100 || m.Power(2) != 300 {
		t.Fatal("utilization must clamp")
	}
	for _, bad := range []ServerModel{{-1, 10}, {10, 5}, {0, 0}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("model %+v must be invalid", bad)
		}
	}
}

func TestDVFS(t *testing.T) {
	d := DefaultDVFS
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Clamp(0.1) != 0.6 || d.Clamp(2) != 1.2 || d.Clamp(1) != 1 {
		t.Fatal("clamp broken")
	}
	m := ServerModel{Idle: 100, Peak: 300}
	// Cubic dynamic power: throttling to 0.6 must save much more than 40%
	// of dynamic power.
	nominal := d.Power(m, 1)
	throttled := d.Power(m, 0.6)
	if nominal != 300 {
		t.Fatalf("nominal = %v", nominal)
	}
	wantDyn := 200 * math.Pow(0.6, 3)
	if math.Abs(throttled-(100+wantDyn)) > 1e-9 {
		t.Fatalf("throttled = %v", throttled)
	}
	if d.Throughput(0.6) != 0.6 {
		t.Fatal("throughput must be linear in frequency")
	}
	if err := (DVFS{MinFreq: 0, MaxFreq: 1}).Validate(); err == nil {
		t.Fatal("zero MinFreq must be invalid")
	}
}

// diurnalLoad renders a smooth day/night load curve peaking at peakLoad.
func diurnalLoad(n int, step time.Duration, peakLoad float64) timeseries.Series {
	s := timeseries.Zeros(t0, step, n)
	for i := 0; i < n; i++ {
		h := t0.Add(time.Duration(i) * step)
		hour := float64(h.Hour()) + float64(h.Minute())/60
		// Activity between 0.35 and 1.0, peaking at 15:00.
		d := math.Abs(hour - 15)
		if d > 12 {
			d = 24 - d
		}
		act := 0.35 + 0.65*math.Exp(-0.5*(d/4)*(d/4))
		s.Values[i] = act * peakLoad
	}
	return s
}

// fixedPolicy applies a constant action.
type fixedPolicy struct{ act Action }

func (p fixedPolicy) Decide(State) Action { return p.act }
func (fixedPolicy) Name() string          { return "fixed" }

// droppedLC is a run's offered-but-unserved LC load, summed step by step.
func droppedLC(cfg Config, res *Result) float64 {
	var d float64
	for i, served := range res.LCThroughput.Values {
		d += cfg.LCLoad.Values[i] - served
	}
	return d
}

func baseConfig(nConv int, peakLoad float64, policy Policy) Config {
	return Config{
		LCLoad: diurnalLoad(7*24, time.Hour, peakLoad),
		NLC:    100, NBatch: 50, NConv: nConv,
		LCServer:    ServerModel{Idle: 90, Peak: 300},
		BatchServer: ServerModel{Idle: 140, Peak: 310},
		Freq:        DefaultDVFS,
		Budget:      1e9, // effectively unconstrained
		Lconv:       0.85,
		QoSKnee:     0.9,
		Policy:      policy,
	}
}

func TestRunBaseline(t *testing.T) {
	// Original fleet at its design load: offered peak = NLC·Lconv.
	cfg := baseConfig(0, 100*0.85, fixedPolicy{Action{BatchFreq: 1}})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.QoSViolations != 0 {
		t.Fatalf("baseline QoS violations: %d", res.QoSViolations)
	}
	if d := droppedLC(cfg, res); d > 1e-9 {
		t.Fatalf("baseline dropped load: %v", d)
	}
	if res.CapEvents != 0 || res.OverBudgetSteps != 0 {
		t.Fatalf("unexpected capping: %+v", res)
	}
	// Batch work = NBatch per step.
	if math.Abs(res.BatchThroughput.Values[0]-50) > 1e-9 {
		t.Fatalf("batch throughput = %v", res.BatchThroughput.Values[0])
	}
	// Per-server load peaks at Lconv.
	if p := res.PerLCServerLoad.Peak(); math.Abs(p-0.85) > 0.01 {
		t.Fatalf("per-server peak load = %v", p)
	}
	if res.TotalLC <= 0 || res.Power.Min() <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestRunOverload(t *testing.T) {
	// Offered load beyond total capacity: load must be dropped, QoS violated.
	cfg := baseConfig(0, 130, fixedPolicy{Action{BatchFreq: 1}})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if droppedLC(cfg, res) <= 0 {
		t.Fatal("overload must drop LC load")
	}
	if res.QoSViolations == 0 {
		t.Fatal("overload must violate QoS")
	}
	if res.PerLCServerLoad.Peak() > 1 {
		t.Fatal("per-server load cannot exceed 1")
	}
}

func TestRunConversionServersAddBatchWork(t *testing.T) {
	// Conversion pool pinned to Batch: batch throughput rises by the pool.
	cfg := baseConfig(13, 100*0.85, fixedPolicy{Action{ConvLC: 0, BatchFreq: 1}})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BatchThroughput.Values[0]-63) > 1e-9 {
		t.Fatalf("batch with conv pool = %v", res.BatchThroughput.Values[0])
	}
	// Pool pinned to LC instead: batch back to 50, LC load spread thinner.
	cfg2 := baseConfig(13, 100*0.85, fixedPolicy{Action{ConvLC: 13, BatchFreq: 1}})
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.BatchThroughput.Values[0]-50) > 1e-9 {
		t.Fatalf("batch with LC-pinned pool = %v", res2.BatchThroughput.Values[0])
	}
	if res2.PerLCServerLoad.Peak() >= res.PerLCServerLoad.Peak() {
		t.Fatal("LC-pinned pool must lower per-server load")
	}
}

func TestRunCappingBackstop(t *testing.T) {
	// Squeeze the budget below what full-tilt operation needs. The backstop
	// must keep every step within budget by throttling batch then shedding.
	cfg := baseConfig(0, 100*0.85, fixedPolicy{Action{BatchFreq: 1}})
	cfg.Budget = 36000 // ~100 LC servers near idle + 50 batch throttled
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapEvents == 0 {
		t.Fatal("tight budget must trigger capping")
	}
	if res.OverBudgetSteps != 0 {
		t.Fatalf("capping failed to keep power under budget on %d steps", res.OverBudgetSteps)
	}
	if res.Power.Peak() > cfg.Budget+1e-6 {
		t.Fatalf("power peak %v exceeds budget %v", res.Power.Peak(), cfg.Budget)
	}
}

func TestRunValidation(t *testing.T) {
	good := baseConfig(0, 50, fixedPolicy{})
	bads := []func(*Config){
		func(c *Config) { c.LCLoad = timeseries.Series{} },
		func(c *Config) { c.NLC = 0 },
		func(c *Config) { c.NConv = -1 },
		func(c *Config) { c.LCServer = ServerModel{Idle: -1, Peak: 1} },
		func(c *Config) { c.Budget = 0 },
		func(c *Config) { c.Lconv = 0 },
		func(c *Config) { c.Lconv = 1.5 },
		func(c *Config) { c.QoSKnee = 0 },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Freq = DVFS{MinFreq: -1, MaxFreq: 1} },
	}
	for i, mutate := range bads {
		c := good
		mutate(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Run(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestCompare(t *testing.T) {
	base := &Result{TotalLC: 100, TotalBatch: 50}
	run := &Result{TotalLC: 113, TotalBatch: 54}
	imp := Compare(base, run)
	if math.Abs(imp.LCPct-13) > 1e-9 || math.Abs(imp.BatchPct-8) > 1e-9 {
		t.Fatalf("improvement = %+v", imp)
	}
	zero := Compare(&Result{}, run)
	if zero.LCPct != 0 || zero.BatchPct != 0 {
		t.Fatal("zero baseline must yield zero improvement")
	}
}

func TestPolicyNameInReports(t *testing.T) {
	if !strings.Contains(fixedPolicy{}.Name(), "fixed") {
		t.Fatal("policy name")
	}
}
