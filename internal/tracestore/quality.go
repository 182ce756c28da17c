package tracestore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/parallel"
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

// SnapshotQuality materialises an instance's trace over [from, to) at the
// store's step and tags it with the quality of the raw readings behind it.
// Gaps are repaired by linear interpolation between neighbouring readings
// (edge gaps take the nearest reading). A window with no readings at all
// is not an error: it returns a zero Series with GradeNoData so callers can
// degrade gracefully (quarantine) instead of failing the whole scoring
// pass. An unknown instance is an error — the caller asked about an
// instance the store has never heard of.
func (s *Store) SnapshotQuality(id string, from, to time.Time) (timeseries.Series, Quality, error) {
	w, err := s.snapshotWindow(from, to)
	if err != nil {
		return timeseries.Series{}, Quality{}, err
	}
	return s.readOne(id, w)
}

// AveragedITraceQuality folds an instance's last `weeks` full weeks (ending
// at the given week boundary) onto one time-of-week-aligned week — Eq. 4
// computed straight from collected telemetry — and tags it with the
// quality of the raw readings over the folded span. Like SnapshotQuality
// it reports an empty span as GradeNoData instead of an error.
func (s *Store) AveragedITraceQuality(id string, weekEnd time.Time, weeks int) (timeseries.Series, Quality, error) {
	w, err := s.trainingWindow(weekEnd, weeks)
	if err != nil {
		return timeseries.Series{}, Quality{}, err
	}
	return s.readOne(id, w)
}

// SnapshotQualityBatch is SnapshotQuality for every id over one window,
// read under one read lock into one slab on at most workers goroutines
// (parallel.Workers resolves 0). It calls visit(i, trace, quality) for each
// index from the goroutine that read it, still under the read lock, so
// visit must confine its writes to index i and must not call the store;
// the traces share the slab. An unknown id grades no-data instead of
// failing. Any other failure stops the batch: it returns the lowest failing
// index and that index's SnapshotQuality error.
func (s *Store) SnapshotQualityBatch(ids []string, from, to time.Time, workers int, visit func(i int, tr timeseries.Series, q Quality)) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	w, err := s.snapshotWindow(from, to)
	if err != nil {
		return 0, err
	}
	return s.readBatch(ids, w, workers, visit)
}

// AveragedITraceQualityBatch is AveragedITraceQuality for every id, read
// like SnapshotQualityBatch.
func (s *Store) AveragedITraceQualityBatch(ids []string, weekEnd time.Time, weeks, workers int, visit func(i int, tr timeseries.Series, q Quality)) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	w, err := s.trainingWindow(weekEnd, weeks)
	if err != nil {
		return 0, err
	}
	return s.readBatch(ids, w, workers, visit)
}

// window is a read's span on the step grid: n slots from from, the grid
// slot at or before the requested start, whose number is slot (onGrid is
// false when it lies beyond the grid's range, and so before or after
// every ring). A training window is folded onto one week after repair.
type window struct {
	from, to time.Time
	slot     int64
	onGrid   bool
	n        int
	fold     bool
}

func (s *Store) snapshotWindow(from, to time.Time) (window, error) {
	from = from.Truncate(s.step)
	n := int(to.Sub(from) / s.step)
	if n <= 0 {
		return window{}, fmt.Errorf("tracestore: empty window [%v, %v)", from, to)
	}
	slot, onGrid := s.slotOf(from)
	return window{from: from, to: to, slot: slot, onGrid: onGrid, n: n}, nil
}

func (s *Store) trainingWindow(weekEnd time.Time, weeks int) (window, error) {
	if weeks < 1 {
		return window{}, errWeeks
	}
	span := time.Duration(weeks) * 7 * 24 * time.Hour
	w, err := s.snapshotWindow(weekEnd.Add(-span), weekEnd)
	w.fold = true
	return w, err
}

// slots is the length of the trace a read of w returns: the window's, or
// one week's when it is folded.
func (w window) slots(step time.Duration) int {
	if !w.fold {
		return w.n
	}
	return int(7 * 24 * time.Hour / step)
}

// readOne is the batch of one: the read kernel under the read lock, with
// its own buffers and no goroutine.
func (s *Store) readOne(id string, w window) (timeseries.Series, Quality, error) {
	var raw []float64
	if w.fold {
		raw = make([]float64, w.n)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.read(s.instances[id], id, w, raw, make([]float64, w.slots(s.step)))
}

// readBatch resolves every id's ring under one read lock and runs the read
// kernel over them on contiguous runs of indices, one run per worker, each
// with its own raw-window scratch. Every trace is written into one slab.
func (s *Store) readBatch(ids []string, w window, workers int, visit func(int, timeseries.Series, Quality)) (int, error) {
	k := w.slots(s.step)
	slab := make([]float64, len(ids)*k)
	rings := make([]*ring, len(ids))
	runs := min(parallel.Workers(workers), len(ids))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, id := range ids {
		rings[i] = s.instances[id]
	}
	err := parallel.ForEach(context.Background(), runs, runs, func(run int) error {
		var raw []float64
		if w.fold {
			raw = make([]float64, w.n)
		}
		for i := run * len(ids) / runs; i < (run+1)*len(ids)/runs; i++ {
			tr, q, err := s.read(rings[i], ids[i], w, raw, slab[i*k:(i+1)*k:(i+1)*k])
			if errors.Is(err, ErrUnknownInstance) {
				tr, q, err = timeseries.Series{}, Quality{Grade: GradeNoData}, nil
			}
			if err != nil {
				return batchError{i, err}
			}
			visit(i, tr, q)
		}
		return nil
	})
	if err != nil {
		be := err.(batchError)
		return be.index, be.err
	}
	return 0, nil
}

// batchError carries a batch read's failing index out of parallel.ForEach,
// which returns the error of the lowest failing run, whose first failure is
// the batch's lowest failing index.
type batchError struct {
	index int
	err   error
}

func (e batchError) Error() string { return e.err.Error() }

// read is the one read kernel: it copies r's slots over w and counts the
// readings, grades the window, rejects impulses, repairs gaps, for a
// training window folds the repaired window onto one week, and snaps the
// trace to the scoring grid (timeseries.Snap), so sums of the traces it
// returns are exact in any order. The trace is written into dst (w.slots
// long); a training read repairs its raw window in raw (w.n long) first.
// The caller holds s.mu for reading.
func (s *Store) read(r *ring, id string, w window, raw, dst []float64) (timeseries.Series, Quality, error) {
	if r == nil {
		return timeseries.Series{}, Quality{}, fmt.Errorf("%w: %q", ErrUnknownInstance, id)
	}
	step := s.step
	vals := dst
	if w.fold {
		vals = raw
	}
	// Window slot i is ring slot base+i: both are numbered on the step
	// grid, so one offset maps the window.
	n := w.n
	base := w.slot - r.start
	lo, hi := 0, 0 // window slots [lo, hi) overlap the ring
	real, lastReal := 0, -1
	if w.onGrid && base > -int64(n) && base < int64(len(r.values)) {
		base := int(base)
		lo, hi = max(0, -base), min(n, len(r.values)-base)
		var last int
		if real, last = r.copyCount(vals[lo:hi], base+lo, base+hi); last >= 0 {
			lastReal = lo + last
		}
	}
	fillNaN(vals[:lo])
	fillNaN(vals[hi:])

	window := time.Duration(n) * step
	q := Quality{
		Coverage:             float64(real) / float64(n),
		InterpolatedFraction: float64(n-real) / float64(n),
		Staleness:            window,
	}
	if lastReal >= 0 {
		q.Staleness = w.to.Sub(w.from.Add(time.Duration(lastReal+1) * step))
	}
	q.Grade = q.grade(window)
	if real == 0 {
		q.InterpolatedFraction = 0 // nothing to interpolate from
		return timeseries.Series{}, q, nil
	}
	rejected := 0
	switch {
	case !s.cfg.RejectImpulses:
	case real == n:
		rejected = rejectImpulsesGapFree(vals)
	default:
		rejected = rejectImpulses(vals)
	}
	// A window with a reading in every slot and none rejected has no gap, so
	// interpolate would leave it as it is.
	if real < n || rejected > 0 {
		if err := interpolate(vals); err != nil {
			return timeseries.Series{}, Quality{}, fmt.Errorf("tracestore: instance %q: %w", id, err)
		}
	}
	tr := timeseries.New(w.from, step, vals)
	if w.fold {
		var err error
		if tr, err = tr.FoldWeeksInto(dst); err != nil {
			return timeseries.Series{}, q, err
		}
	}
	timeseries.SnapAll(tr.Values)
	return tr, q, nil
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

// rejectImpulsesGapFree is rejectImpulses on a window with a reading in
// every slot, whose nearest real neighbours are the adjacent slots. Like
// the general scan it judges every reading against its neighbours as read,
// before any rejection, so the two agree in values and count. With no NaN
// about, v > 2·max(a, b) is v > 2a && v > 2b.
func rejectImpulsesGapFree(vals []float64) int {
	n := len(vals)
	if n < 2 {
		return 0 // the only reading in the window
	}
	rejected := 0
	prev := vals[0] // vals[i-1] as read
	if vals[0] > 2*vals[1] {
		vals[0] = math.NaN()
		rejected++
	}
	for i := 1; i < n-1; i++ {
		v := vals[i]
		if v > 2*prev && v > 2*vals[i+1] {
			vals[i] = math.NaN()
			rejected++
		}
		prev = v
	}
	if vals[n-1] > 2*prev {
		vals[n-1] = math.NaN()
		rejected++
	}
	return rejected
}
