package sim

import (
	"fmt"
	"math"

	"repro/internal/timeseries"
)

// LatencyModel estimates per-request latency of a latency-critical server
// from its utilization with the M/M/1 mean-response-time form
//
//	R(ρ) = S / (1 − ρ)
//
// and a tail amplification factor (tailFactor) for the p99 proxy. The knee behaviour the
// paper's guarded threshold protects against ("the load level of each
// server when LC achieves satisfactory QoS", §4.2) emerges naturally: the
// curve is flat below ~0.7 and explodes near saturation.
type LatencyModel struct {
	// ServiceTimeMs is the zero-load service time S.
	ServiceTimeMs float64
	// SLAms is the p99 budget; utilizations whose p99 proxy exceeds it
	// violate the SLA. 0 disables SLA accounting.
	SLAms float64
}

// Validate checks the model.
func (m LatencyModel) Validate() error {
	if m.ServiceTimeMs <= 0 {
		return fmt.Errorf("%w: service time must be positive", ErrModel)
	}
	if m.SLAms < 0 {
		return fmt.Errorf("%w: negative SLA", ErrModel)
	}
	return nil
}

// tailFactor multiplies mean latency into a p99 proxy: ln(100) ≈ 4.6 for
// exponential service times.
const tailFactor = 4.6

// Mean returns the mean response time at utilization ρ (clamped just below
// saturation so the curve stays finite).
func (m LatencyModel) Mean(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	const capRho = 0.999
	if rho > capRho {
		rho = capRho
	}
	return m.ServiceTimeMs / (1 - rho)
}

// P99 returns the p99 latency proxy at utilization ρ.
func (m LatencyModel) P99(rho float64) float64 {
	return m.Mean(rho) * tailFactor
}

// MeetsSLA reports whether the p99 proxy at ρ fits the SLA. Models without
// an SLA always pass.
func (m LatencyModel) MeetsSLA(rho float64) bool {
	if m.SLAms == 0 {
		return true
	}
	return m.P99(rho) <= m.SLAms
}

// MaxUtilization returns the highest utilization that still meets the SLA —
// the principled way to derive the QoS knee (and hence Lconv's ceiling)
// from a latency budget.
func (m LatencyModel) MaxUtilization() float64 {
	if m.SLAms == 0 {
		return 1
	}
	// S·tail/(1−ρ) ≤ SLA  ⇒  ρ ≤ 1 − S·tail/SLA.
	rho := 1 - m.ServiceTimeMs*tailFactor/m.SLAms
	if rho < 0 {
		return 0
	}
	if rho > 1 {
		return 1
	}
	return rho
}

// LatencyReport summarises latency over a simulated run.
type LatencyReport struct {
	// P99 is the per-step p99 latency proxy series.
	P99 timeseries.Series
	// MeanMs and PeakP99Ms aggregate the run.
	MeanMs, PeakP99Ms float64
	// SLAViolations counts steps whose p99 proxy broke the SLA.
	SLAViolations int
}

// Latency derives the latency report of a completed run from its
// per-LC-server load series.
func Latency(res *Result, m LatencyModel) (LatencyReport, error) {
	if err := m.Validate(); err != nil {
		return LatencyReport{}, err
	}
	if res == nil || res.PerLCServerLoad.Empty() {
		return LatencyReport{}, fmt.Errorf("%w: run has no load series", ErrModel)
	}
	rep := LatencyReport{P99: res.PerLCServerLoad.Clone()}
	var meanSum float64
	for i, rho := range res.PerLCServerLoad.Values {
		p99 := m.P99(rho)
		rep.P99.Values[i] = p99
		meanSum += m.Mean(rho)
		if p99 > rep.PeakP99Ms {
			rep.PeakP99Ms = p99
		}
		if !m.MeetsSLA(rho) {
			rep.SLAViolations++
		}
	}
	rep.MeanMs = meanSum / float64(res.PerLCServerLoad.Len())
	if math.IsNaN(rep.MeanMs) {
		return LatencyReport{}, fmt.Errorf("%w: non-finite latency", ErrModel)
	}
	return rep, nil
}
