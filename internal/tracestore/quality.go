package tracestore

import (
	"fmt"
	"math"
	"time"

	"repro/internal/timeseries"
)

// ErrTransient marks a retryable store failure: the reading was not
// recorded but re-appending it may succeed. The in-memory store never
// fails this way itself, but fault injection (internal/faults) and remote
// store backends surface it, and core.Runtime retries ingest a bounded
// number of times on errors.Is(err, ErrTransient).
var ErrTransient = fmt.Errorf("tracestore: transient store failure")

// Grade classifies how trustworthy a materialised trace is, from the
// coverage and freshness of the raw readings behind it.
type Grade int

// Quality grades, best first.
const (
	// GradeGood: ≥ 90% raw coverage and a fresh tail.
	GradeGood Grade = iota
	// GradeDegraded: usable but gappy (≥ 50% coverage) or stale-tailed;
	// interpolation carries a visible share of the trace.
	GradeDegraded
	// GradePoor: below 50% coverage — mostly interpolation. The runtime
	// quarantines instances at this grade by default.
	GradePoor
	// GradeNoData: not one raw reading in the window.
	GradeNoData
)

// String names the grade.
func (g Grade) String() string {
	switch g {
	case GradeGood:
		return "good"
	case GradeDegraded:
		return "degraded"
	case GradePoor:
		return "poor"
	case GradeNoData:
		return "no-data"
	default:
		return fmt.Sprintf("Grade(%d)", int(g))
	}
}

// Grade thresholds (fractions of the window).
const (
	// goodCoverage is the minimum raw coverage for GradeGood.
	goodCoverage = 0.9
	// poorCoverage is the coverage below which a trace is GradePoor.
	poorCoverage = 0.5
	// staleFraction of the window without readings at the tail demotes a
	// trace to GradeDegraded even when overall coverage is high.
	staleFraction = 0.1
)

// Quality reports how much of a materialised trace is real telemetry and
// how much is repair. It is a value snapshot handed to HTTP readers and
// scoring; once built it is never modified.
//
// smoothop:immutable
type Quality struct {
	// Coverage is the fraction of window slots holding a raw reading.
	Coverage float64
	// InterpolatedFraction is the fraction of slots filled by gap repair
	// (linear interpolation, plus edge extension at the window borders).
	// Coverage + InterpolatedFraction == 1 whenever the window holds any
	// reading at all.
	InterpolatedFraction float64
	// Staleness is the age of the newest raw reading relative to the
	// window end (one full window when the window is empty).
	Staleness time.Duration
	// Grade is the classification derived from the numbers above.
	Grade Grade
}

// grade derives the classification for a window of length n slots.
func (q Quality) grade(window time.Duration) Grade {
	switch {
	case q.Coverage == 0:
		return GradeNoData
	case q.Coverage < poorCoverage:
		return GradePoor
	case q.Coverage < goodCoverage || q.Staleness > time.Duration(staleFraction*float64(window)):
		return GradeDegraded
	default:
		return GradeGood
	}
}

// SnapshotQuality materialises an instance's trace over [from, to) exactly
// like Snapshot and tags it with the quality of the raw readings behind
// it. Unlike Snapshot, a window with no readings at all is not an error:
// it returns a zero Series with GradeNoData so callers can degrade
// gracefully (quarantine) instead of failing the whole scoring pass.
// An unknown instance is still an error — the caller asked about an
// instance the store has never heard of.
func (s *Store) SnapshotQuality(id string, from, to time.Time) (timeseries.Series, Quality, error) {
	step := s.cfg.step()
	from = from.Truncate(step)
	n := int(to.Sub(from) / step)
	if n <= 0 {
		return timeseries.Series{}, Quality{}, fmt.Errorf("tracestore: empty window [%v, %v)", from, to)
	}
	window := time.Duration(n) * step

	s.mu.RLock()
	r := s.instances[id]
	if r == nil {
		s.mu.RUnlock()
		return timeseries.Series{}, Quality{}, fmt.Errorf("%w: %q", ErrUnknownInstance, id)
	}
	// Window slot i is ring slot base+i: from and every ring start lie on
	// the step grid (Append truncates, advance/shiftBack move by whole
	// slots, Load rejects anything else), so one offset maps the window.
	// A saturated Sub only ever pushes base further outside the ring.
	base := int(from.Sub(r.start) / step)
	vals := make([]float64, n)
	lo, hi := 0, 0 // window slots [lo, hi) overlap the ring
	if base > -n && base < len(r.values) {
		lo, hi = max(0, -base), min(n, len(r.values)-base)
		copy(vals[lo:hi], r.values[base+lo:base+hi])
	}
	s.mu.RUnlock()
	real, lastReal := 0, -1
	for i, v := range vals[lo:hi] {
		if !math.IsNaN(v) {
			real++
			lastReal = lo + i
		}
	}
	for i := range vals[:lo] {
		vals[i] = math.NaN()
	}
	for i := range vals[hi:] {
		vals[hi+i] = math.NaN()
	}

	q := Quality{
		Coverage:             float64(real) / float64(n),
		InterpolatedFraction: float64(n-real) / float64(n),
		Staleness:            window,
	}
	if lastReal >= 0 {
		q.Staleness = to.Sub(from.Add(time.Duration(lastReal+1) * step))
	}
	q.Grade = q.grade(window)
	if real == 0 {
		q.InterpolatedFraction = 0 // nothing to interpolate from
		return timeseries.Series{}, q, nil
	}
	rejected := 0
	if s.cfg.RejectImpulses {
		rejected = rejectImpulses(vals)
	}
	// A window with a reading in every slot and none rejected has no gap, so
	// interpolate would leave it as it is.
	if real < n || rejected > 0 {
		if err := interpolate(vals); err != nil {
			return timeseries.Series{}, Quality{}, fmt.Errorf("tracestore: instance %q: %w", id, err)
		}
	}
	return timeseries.New(from, step, vals), q, nil
}

// rejectImpulses drops single-sample glitches from the raw window before
// gap repair: a reading more than twice the larger of its nearest real
// neighbours is a spiking sensor, not workload, and becomes a gap for
// interpolate to bridge from clean endpoints. Running this before repair
// matters — a spike on the edge of a dropout gap would otherwise be smeared
// across the whole gap as a broad synthetic peak no post-repair filter can
// tell from real load. Rejected readings still count as raw coverage (the
// sensor did report; the value was bogus). Identity on clean traces: no
// smooth power signal doubles in one slot. It returns how many readings it
// rejected.
func rejectImpulses(vals []float64) int {
	prev := -1 // index of the previous real sample
	next := -1 // index of the nearest real sample after i, found lazily
	spiked := make([]int, 0, 4)
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if next <= i {
			next = -1
			for j := i + 1; j < len(vals); j++ {
				if !math.IsNaN(vals[j]) {
					next = j
					break
				}
			}
		}
		var m float64
		switch {
		case prev < 0 && next < 0:
			prev = i
			continue // the only reading in the window
		case prev < 0:
			m = vals[next]
		case next < 0:
			m = vals[prev]
		default:
			m = max(vals[prev], vals[next])
		}
		if v > 2*m {
			spiked = append(spiked, i)
		}
		prev = i
	}
	for _, i := range spiked {
		vals[i] = math.NaN()
	}
	return len(spiked)
}

// AveragedITraceQuality is AveragedITrace tagged with the quality of the
// raw readings over the folded span. Like SnapshotQuality it reports an
// empty span as GradeNoData instead of an error.
func (s *Store) AveragedITraceQuality(id string, weekEnd time.Time, weeks int) (timeseries.Series, Quality, error) {
	if weeks < 1 {
		return timeseries.Series{}, Quality{}, errWeeks
	}
	span := time.Duration(weeks) * 7 * 24 * time.Hour
	tr, q, err := s.SnapshotQuality(id, weekEnd.Add(-span), weekEnd)
	if err != nil || q.Grade == GradeNoData {
		return timeseries.Series{}, q, err
	}
	folded, err := tr.FoldWeeks()
	if err != nil {
		return timeseries.Series{}, q, err
	}
	return folded, q, nil
}
