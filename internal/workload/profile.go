// Package workload synthesizes production-like datacenter fleets and power
// traces.
//
// The paper's evaluation uses three weeks of per-server power telemetry from
// three Facebook datacenters. That data is proprietary, so this package is
// the substitution described in DESIGN.md: a parametric generator that
// reproduces the *published structure* of those traces — the service mix of
// Fig. 5, the diurnal shapes of Fig. 6 (user-facing day peaks, db night
// backup peaks, flat-high hadoop), per-instance heterogeneity from skewed
// popularity and access patterns (§3.3), and strong day-of-week effects.
// Every algorithm in the reproduction consumes only trace shape, so
// preserving the shape preserves the behaviour under study.
package workload

import (
	"fmt"
	"math"
	"time"
)

// Class partitions services by their role, which determines how the dynamic
// power profile reshaping runtime (§4) may treat their servers.
type Class int

const (
	// LatencyCritical services serve user-facing traffic (web, cache,
	// search). Their power follows user activity and they must meet QoS.
	LatencyCritical Class = iota
	// Batch services (hadoop, batchjob) are throughput-oriented and may be
	// throttled or boosted.
	Batch
	// Backend services (db) back the front-end; I/O bound by day, busy with
	// backup compression at night.
	Backend
	// Storage services (photostorage) are disaggregated storage nodes with
	// flat, low power.
	Storage
	// Dev covers lab and development servers with weak business-hour
	// patterns.
	Dev
)

// String names the class.
func (c Class) String() string {
	switch c {
	case LatencyCritical:
		return "LC"
	case Batch:
		return "Batch"
	case Backend:
		return "Backend"
	case Storage:
		return "Storage"
	case Dev:
		return "Dev"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Bump describes one diurnal activity bump as a wrapped Gaussian on the
// 24-hour circle.
type Bump struct {
	// PeakHour is the local hour-of-day of maximum activity, in [0, 24).
	PeakHour float64
	// SigmaHours is the bump's spread.
	SigmaHours float64
	// Height is the bump's contribution to activity at its peak, in [0, 1].
	Height float64
}

// eval returns the bump's contribution at hour h (0 ≤ h < 24).
func (b Bump) eval(h float64) float64 {
	if b.Height == 0 || b.SigmaHours <= 0 {
		return 0
	}
	d := math.Abs(h - b.PeakHour)
	if d > 12 {
		d = 24 - d
	}
	return b.Height * math.Exp(-0.5*(d/b.SigmaHours)*(d/b.SigmaHours))
}

// Shape is the parametric diurnal/weekly activity model of a service. The
// resulting activity level is clamped to [0, 1]; instance power is
// idle + (peak−idle)·activity.
type Shape struct {
	// Base is the activity floor present at all times.
	Base float64
	// Bumps are the diurnal activity bumps (e.g. a single afternoon bump for
	// web, a night bump for db backups).
	Bumps []Bump
	// WeekdayWeights scales the bump heights per day of week
	// (index 0 = Monday). A nil slice means every day weighs 1.
	WeekdayWeights []float64
}

// Activity evaluates the shape at time t (using t's UTC clock as the
// datacenter-local clock).
func (s Shape) Activity(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
	w := 1.0
	if len(s.WeekdayWeights) == 7 {
		// time.Weekday: Sunday = 0; we index Monday = 0.
		w = s.WeekdayWeights[(int(t.Weekday())+6)%7]
	}
	a := s.Base
	for _, b := range s.Bumps {
		a += w * b.eval(h)
	}
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}

// Profile describes one service's server population: its class, per-server
// power envelope, and activity shape.
type Profile struct {
	// Service is the service name, e.g. "frontend".
	Service string
	// Class is the service's workload class.
	Class Class
	// IdlePower and PeakPower bound a server's draw (same unit as budgets).
	IdlePower, PeakPower float64
	// Shape is the diurnal activity model.
	Shape Shape
}

// weekdayBusiness is a weekday weighting with quieter weekends, the paper's
// "strong day-of-the-week activity patterns" (§3.3).
func weekdayBusiness(weekend float64) []float64 {
	return []float64{1, 1.02, 1.04, 1.03, 0.98, weekend, weekend}
}

// StandardProfiles returns the library of service profiles used by the
// synthetic datacenters. Power values are in watts per server with a 300 W
// envelope, roughly matching a dual-socket web-tier box.
func StandardProfiles() map[string]Profile {
	flat := Shape{Base: 0.85}
	profiles := []Profile{
		// User-facing LC tier: single strong afternoon/evening bump.
		{"frontend", LatencyCritical, 90, 300, Shape{Base: 0.18, Bumps: []Bump{{PeakHour: 15, SigmaHours: 3.2, Height: 0.75}}, WeekdayWeights: weekdayBusiness(0.8)}},
		{"web", LatencyCritical, 90, 300, Shape{Base: 0.18, Bumps: []Bump{{PeakHour: 15.5, SigmaHours: 3.2, Height: 0.72}}, WeekdayWeights: weekdayBusiness(0.8)}},
		{"cache", LatencyCritical, 80, 260, Shape{Base: 0.25, Bumps: []Bump{{PeakHour: 15, SigmaHours: 3.5, Height: 0.65}}, WeekdayWeights: weekdayBusiness(0.85)}},
		{"search", LatencyCritical, 85, 280, Shape{Base: 0.22, Bumps: []Bump{{PeakHour: 14, SigmaHours: 3.2, Height: 0.68}}, WeekdayWeights: weekdayBusiness(0.75)}},
		{"instagram", LatencyCritical, 85, 290, Shape{Base: 0.2, Bumps: []Bump{{PeakHour: 19, SigmaHours: 3.2, Height: 0.7}}, WeekdayWeights: weekdayBusiness(0.95)}},
		{"mobiledev", LatencyCritical, 80, 260, Shape{Base: 0.22, Bumps: []Bump{{PeakHour: 17, SigmaHours: 3.5, Height: 0.65}}, WeekdayWeights: weekdayBusiness(0.9)}},
		{"serviceA", LatencyCritical, 80, 250, Shape{Base: 0.22, Bumps: []Bump{{PeakHour: 13, SigmaHours: 3.2, Height: 0.65}}, WeekdayWeights: weekdayBusiness(0.85)}},
		{"serviceB", LatencyCritical, 80, 250, Shape{Base: 0.22, Bumps: []Bump{{PeakHour: 16, SigmaHours: 3.2, Height: 0.65}}, WeekdayWeights: weekdayBusiness(0.85)}},

		// Backend db tier: modest daytime load, dominant night backup bump
		// ("these servers perform daily backup at night, which involves a lot
		// of data compression", §2.3).
		{"dbA", Backend, 110, 280, Shape{Base: 0.25, Bumps: []Bump{{PeakHour: 14, SigmaHours: 5, Height: 0.15}, {PeakHour: 2, SigmaHours: 2.2, Height: 0.62}}, WeekdayWeights: weekdayBusiness(0.9)}},
		{"dbB", Backend, 110, 280, Shape{Base: 0.25, Bumps: []Bump{{PeakHour: 15, SigmaHours: 5, Height: 0.12}, {PeakHour: 3, SigmaHours: 2.2, Height: 0.62}}, WeekdayWeights: weekdayBusiness(0.9)}},

		// Batch tier: constantly high, weakly diurnal ("their power
		// consumptions are constantly high and less relevant to the user
		// activity level", §2.3).
		{"hadoop", Batch, 140, 310, Shape{Base: 0.8, Bumps: []Bump{{PeakHour: 4, SigmaHours: 6, Height: 0.1}}}},
		{"batchjob", Batch, 130, 300, Shape{Base: 0.75, Bumps: []Bump{{PeakHour: 23, SigmaHours: 5, Height: 0.12}}}},

		// Storage and long-tail services.
		{"photostorage", Storage, 100, 180, flat},
		{"labserver", Dev, 70, 200, Shape{Base: 0.3, Bumps: []Bump{{PeakHour: 11, SigmaHours: 3.5, Height: 0.35}}, WeekdayWeights: weekdayBusiness(0.4)}},
		{"dev", Dev, 70, 200, Shape{Base: 0.25, Bumps: []Bump{{PeakHour: 14, SigmaHours: 3.5, Height: 0.35}}, WeekdayWeights: weekdayBusiness(0.3)}},
		{"searchindex", Batch, 120, 280, Shape{Base: 0.7, Bumps: []Bump{{PeakHour: 1, SigmaHours: 5, Height: 0.15}}}},
		{"serviceW", Dev, 80, 220, Shape{Base: 0.35, Bumps: []Bump{{PeakHour: 10, SigmaHours: 4, Height: 0.3}}, WeekdayWeights: weekdayBusiness(0.6)}},
		{"serviceX", Backend, 90, 240, Shape{Base: 0.35, Bumps: []Bump{{PeakHour: 5, SigmaHours: 3, Height: 0.4}}}},
		{"serviceY", LatencyCritical, 80, 250, Shape{Base: 0.22, Bumps: []Bump{{PeakHour: 18, SigmaHours: 3.2, Height: 0.65}}, WeekdayWeights: weekdayBusiness(0.9)}},
		{"serviceZ", Batch, 120, 280, Shape{Base: 0.72, Bumps: []Bump{{PeakHour: 2, SigmaHours: 4, Height: 0.15}}}},
	}
	m := make(map[string]Profile, len(profiles))
	for _, p := range profiles {
		m[p.Service] = p
	}
	return m
}
