package sim

import (
	"math"
	"testing"
)

func TestLatencyModelValidate(t *testing.T) {
	if err := (LatencyModel{ServiceTimeMs: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []LatencyModel{
		{ServiceTimeMs: 0},
		{ServiceTimeMs: 1, SLAms: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("model %+v must be invalid", bad)
		}
	}
}

func TestLatencyCurveShape(t *testing.T) {
	m := LatencyModel{ServiceTimeMs: 2}
	if got := m.Mean(0); got != 2 {
		t.Fatalf("zero-load latency = %v", got)
	}
	if m.Mean(0.5) != 4 {
		t.Fatalf("ρ=0.5 latency = %v", m.Mean(0.5))
	}
	// Monotone and exploding near saturation, finite at/after 1.
	prev := 0.0
	for _, rho := range []float64{0, 0.3, 0.6, 0.8, 0.9, 0.95, 0.99, 1, 1.5} {
		v := m.Mean(rho)
		if v < prev {
			t.Fatalf("latency not monotone at ρ=%v", rho)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("latency not finite at ρ=%v", rho)
		}
		prev = v
	}
	if m.Mean(-1) != 2 {
		t.Fatal("negative utilization must clamp to 0")
	}
	if m.P99(0.5) <= m.Mean(0.5) {
		t.Fatal("p99 proxy must exceed the mean")
	}
}

func TestMaxUtilizationDerivesKnee(t *testing.T) {
	// S=2ms, tail 4.6 → p99(ρ)=9.2/(1−ρ). SLA 92ms ⇒ ρmax = 0.9.
	m := LatencyModel{ServiceTimeMs: 2, SLAms: 92}
	if got := m.MaxUtilization(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("knee = %v, want 0.9", got)
	}
	if !m.MeetsSLA(0.89) || m.MeetsSLA(0.95) {
		t.Fatal("SLA check inconsistent with knee")
	}
	// Impossible SLA.
	tight := LatencyModel{ServiceTimeMs: 50, SLAms: 10}
	if tight.MaxUtilization() != 0 {
		t.Fatalf("impossible SLA knee = %v", tight.MaxUtilization())
	}
	// No SLA: everything passes.
	open := LatencyModel{ServiceTimeMs: 2}
	if open.MaxUtilization() != 1 || !open.MeetsSLA(0.999) {
		t.Fatal("no-SLA model must always pass")
	}
}

func TestLatencyReportFromRun(t *testing.T) {
	// Baseline run peaks at Lconv=0.85 < knee 0.9: no SLA violations.
	cfg := baseConfig(0, 100*0.85, fixedPolicy{Action{BatchFreq: 1}})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := LatencyModel{ServiceTimeMs: 2, SLAms: 92}
	rep, err := Latency(res, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLAViolations != 0 {
		t.Fatalf("guarded run violated SLA %d times", rep.SLAViolations)
	}
	if rep.P99.Len() != res.PerLCServerLoad.Len() {
		t.Fatal("latency series length mismatch")
	}
	if rep.MeanMs <= m.ServiceTimeMs {
		t.Fatalf("mean latency %v must exceed service time", rep.MeanMs)
	}
	if rep.PeakP99Ms <= 0 || rep.PeakP99Ms > m.SLAms {
		t.Fatalf("peak p99 = %v", rep.PeakP99Ms)
	}

	// Overloaded run must violate.
	over, err := Run(baseConfig(0, 130, fixedPolicy{Action{BatchFreq: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Latency(over, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SLAViolations == 0 {
		t.Fatal("overload must violate the SLA")
	}
}

func TestLatencyErrors(t *testing.T) {
	if _, err := Latency(nil, LatencyModel{ServiceTimeMs: 1}); err == nil {
		t.Fatal("nil result must error")
	}
	res, err := Run(baseConfig(0, 50, fixedPolicy{Action{BatchFreq: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Latency(res, LatencyModel{}); err == nil {
		t.Fatal("invalid model must error")
	}
}
