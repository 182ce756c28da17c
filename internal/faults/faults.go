// Package faults is a deterministic fault injector for the telemetry path
// and the power tree. Real fleets do not deliver the clean per-minute
// telemetry the paper's §3.6 continuous-operation loop assumes: sensors
// drop out for minutes at a time, latch onto stale values, spike, report
// with skewed clocks, deliver out of order, and whole leaf panels (and
// their breakers) fail. The injector reproduces all of those failure modes
// on top of a replayed trace so the runtime's graceful-degradation
// machinery (quarantine, reference-trace fallback, ingest retry, emergency
// capping — see core.Runtime) can be exercised and soak-tested.
//
// Every decision is a pure function of (Profile.Seed, instance ID, slot
// index): two replays with the same seed inject bit-identical faults
// regardless of feed order across instances, and the injector reads no
// wall clock and draws from no global entropy — it is a pipeline package
// under the smoothoplint determinism contract.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/detmap"
	"repro/internal/powertree"
)

// Reading is one telemetry delivery leaving the injector — possibly
// transformed, delayed or re-timestamped relative to the reading fed in.
type Reading struct {
	// ID is the reporting instance.
	ID string
	// At is the delivery's (possibly skewed) timestamp.
	At time.Time
	// Watts is the (possibly corrupted) power value.
	Watts float64
}

// TripWindow schedules an injected breaker trip on a named power node:
// while the window is active the node runs on its backup feed at a
// fraction of nominal capacity, and the runtime escalates breaker
// violations under it into an emergency capping throttle. Windows are
// declared up front in a Profile and shared by value with HTTP views.
//
// smoothop:immutable
type TripWindow struct {
	// Node is the power node (by name) whose breaker trips.
	Node string
	// Start is when the trip begins.
	Start time.Time
	// Duration is how long the trip lasts.
	Duration time.Duration
	// BudgetFraction is the fraction of the node's budget still available
	// while tripped, in [0, 1]. 0 means 0.5.
	BudgetFraction float64
}

// Budget returns the tripped node's effective budget fraction.
func (t TripWindow) Budget() float64 {
	if t.BudgetFraction == 0 {
		return 0.5
	}
	return t.BudgetFraction
}

// overlaps reports whether the trip intersects [from, to).
func (t TripWindow) overlaps(from, to time.Time) bool {
	end := t.Start.Add(t.Duration)
	return t.Start.Before(to) && from.Before(end)
}

// Profile describes a deterministic fault scenario. All rates are
// per-reading probabilities in [0, 1]; burst lengths are fixed in store
// slots. The zero Profile injects nothing. A profile is fixed once the
// injector is built — replays depend on it never changing mid-run.
//
// smoothop:immutable
type Profile struct {
	// Seed fixes every injection decision.
	Seed int64

	// DropoutRate is the expected fraction of readings lost to dropout
	// windows; losses arrive in bursts of dropoutBurst consecutive slots,
	// modelling a scraper losing a sensor for minutes, not i.i.d. single
	// samples.
	DropoutRate float64

	// StuckRate is the expected fraction of readings latched to the last
	// delivered value (a wedged sensor), in bursts of stuckBurst slots.
	StuckRate float64

	// SpikeRate is the fraction of readings multiplied by spikeFactor —
	// electrical noise and double-counted scrapes.
	SpikeRate float64

	// SkewFraction of instances report through a clock running one slot
	// ahead. Skew is per-instance and stable across the replay.
	SkewFraction float64

	// ReorderFraction of readings are held back 1..reorderDelaySlots slots
	// and delivered late, out of order.
	ReorderFraction float64

	// TransientRate is the fraction of store appends that fail with a
	// retryable error (tracestore.ErrTransient) before succeeding —
	// exercised through Injector.TransientAppendFailure.
	TransientRate float64

	// LeafOutageRate is the expected fraction of readings lost to
	// whole-leaf outages (every instance under one RPP goes dark
	// together), in bursts of leafOutageBurst slots. Feed's caller names
	// each reading's leaf; an instance on no leaf is never in an outage.
	LeafOutageRate float64

	// ActiveFrom/ActiveFor bound when the profile injects. A zero
	// ActiveFrom means from the first reading; a zero ActiveFor means
	// forever. Trips fire on their own schedule regardless.
	ActiveFrom time.Time
	ActiveFor  time.Duration

	// Trips are scheduled breaker-trip events.
	Trips []TripWindow
}

// Named validation errors.
var (
	ErrBadRate = errors.New("faults: rates must be in [0, 1]")
	ErrBadTrip = errors.New("faults: trip windows need a node, a positive duration and a budget fraction in [0, 1]")
	ErrBadStep = errors.New("faults: step must be positive")
	ErrBadSpan = errors.New("faults: ActiveFor needs ActiveFrom")
)

// Fault shapes, in store slots unless noted.
const (
	dropoutBurst      = 8
	stuckBurst        = 16
	spikeFactor       = 3 // multiplier on a spiked reading
	reorderDelaySlots = 4
	leafOutageBurst   = 32
)

// Validate checks the profile.
func (p Profile) Validate() error {
	for _, r := range []float64{p.DropoutRate, p.StuckRate, p.SpikeRate, p.SkewFraction, p.ReorderFraction, p.TransientRate, p.LeafOutageRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("%w, got %g", ErrBadRate, r)
		}
	}
	if p.ActiveFor > 0 && p.ActiveFrom.IsZero() {
		return ErrBadSpan
	}
	for _, t := range p.Trips {
		if t.Node == "" || t.Duration <= 0 || !(t.BudgetFraction >= 0 && t.BudgetFraction <= 1) {
			return fmt.Errorf("%w: %+v", ErrBadTrip, t)
		}
	}
	return nil
}

// Light returns a mild production-like scenario: ~3% bursty dropout, a few
// stuck and spiky sensors, one skewed instance in ten, occasional
// out-of-order delivery and retryable store errors.
func Light(seed int64) Profile {
	return Profile{
		Seed:            seed,
		DropoutRate:     0.03,
		StuckRate:       0.01,
		SpikeRate:       0.002,
		SkewFraction:    0.1,
		ReorderFraction: 0.02,
		TransientRate:   0.01,
	}
}

// Heavy returns a bad week: 15% dropout, wedged and noisy sensors, skew on
// a third of the fleet, frequent reordering, flaky store writes and
// whole-leaf outages.
func Heavy(seed int64) Profile {
	return Profile{
		Seed:            seed,
		DropoutRate:     0.15,
		StuckRate:       0.05,
		SpikeRate:       0.01,
		SkewFraction:    0.3,
		ReorderFraction: 0.1,
		TransientRate:   0.05,
		LeafOutageRate:  0.02,
	}
}

// Activated returns a copy of p that injects only inside the window
// starting at from and lasting dur (the whole replay when dur is 0).
func (p Profile) Activated(from time.Time, dur time.Duration) Profile {
	q := p
	q.ActiveFrom = from
	q.ActiveFor = dur
	return q
}

// WithTrips returns a copy of p carrying the given injected breaker-trip
// windows.
func (p Profile) WithTrips(trips ...TripWindow) Profile {
	q := p
	q.Trips = append([]TripWindow(nil), trips...)
	return q
}

// Injector applies a Profile to a replayed telemetry stream. It is
// stateful (stuck-sensor latches and the reorder buffer are per-instance)
// but deterministic: feeding the same per-instance reading sequences
// produces the same deliveries whatever the interleaving across instances.
// It is not safe for concurrent use; the runtime's serial ingest path is
// the intended caller.
type Injector struct {
	p    Profile
	step time.Duration

	// lastGood latches the last non-stuck value delivered per instance.
	lastGood map[string]float64
	// pending is the per-instance reorder buffer, kept sorted by release
	// slot then arrival order.
	pending map[string][]pendingReading
}

// pendingReading is a delayed delivery waiting in the reorder buffer.
type pendingReading struct {
	release int64 // slot index at which the reading is delivered
	r       Reading
}

// New returns an injector for the profile over telemetry bucketed at step.
// tree, when non-nil, is the power tree the trips' node names are checked
// against; leaf outages need none, since Feed's caller names each
// reading's leaf.
func New(p Profile, step time.Duration, tree *powertree.Node) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if step <= 0 {
		return nil, ErrBadStep
	}
	inj := &Injector{
		p:        p,
		step:     step,
		lastGood: make(map[string]float64),
		pending:  make(map[string][]pendingReading),
	}
	for _, t := range p.Trips {
		if tree != nil && tree.Find(t.Node) == nil {
			return nil, fmt.Errorf("%w: unknown node %q", ErrBadTrip, t.Node)
		}
	}
	return inj, nil
}

// fault kinds, mixed into the decision hash so the streams are independent.
const (
	kindDropout = iota + 1
	kindStuck
	kindSpike
	kindSkew
	kindSkewAmount // retired with the skew size; kept so later kinds keep their hash streams
	kindReorder
	kindReorderDelay
	kindTransient
	kindTransientLen
	kindLeafOutage
)

// slotOf buckets a timestamp into the injector's slot index.
func (f *Injector) slotOf(at time.Time) int64 {
	return at.UnixNano() / int64(f.step)
}

// hash derives a 64-bit decision value from (seed, kind, key, n) with a
// SplitMix64 finisher over an FNV-1a fold — cheap, stateless, and
// independent of evaluation order.
func (f *Injector) hash(kind int, key string, n int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= uint64(f.p.Seed) + uint64(kind)*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9
	// SplitMix64 finisher.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// chance converts a hash into a uniform [0, 1) probability draw.
func (f *Injector) chance(kind int, key string, n int64) float64 {
	return float64(f.hash(kind, key, n)>>11) / (1 << 53)
}

// active reports whether the profile injects at the given time.
func (f *Injector) active(at time.Time) bool {
	if !f.p.ActiveFrom.IsZero() && at.Before(f.p.ActiveFrom) {
		return false
	}
	if f.p.ActiveFor > 0 && !at.Before(f.p.ActiveFrom.Add(f.p.ActiveFor)) {
		return false
	}
	return true
}

// burstHit reports whether the burst-structured fault `kind` is active for
// key at slot: time is divided into windows of `burst` slots and a whole
// window fires with probability rate, so the expected fraction of affected
// readings is rate while losses stay bursty like real sensor outages.
func (f *Injector) burstHit(kind int, key string, slot int64, rate float64, burst int) bool {
	if rate <= 0 {
		return false
	}
	block := slot / int64(burst)
	return f.chance(kind, key, block) < rate
}

// Skew returns the instance's constant clock offset, stable per instance:
// one slot for a skewed instance, zero otherwise.
func (f *Injector) Skew(id string) time.Duration {
	if f.p.SkewFraction <= 0 {
		return 0
	}
	if f.chance(kindSkew, id, 0) >= f.p.SkewFraction {
		return 0
	}
	return f.step
}

// Feed passes one reading of the instance hosted on leaf ("" when it is on
// none) through the injector and returns the deliveries due now: the
// (possibly transformed) reading itself unless it was dropped or delayed,
// followed by any previously delayed readings of the same instance whose
// release slot has arrived — those arrive out of order by construction.
func (f *Injector) Feed(id, leaf string, at time.Time, watts float64) []Reading {
	var out []Reading
	slot := f.slotOf(at)
	if f.active(at) {
		switch {
		case leaf != "" && f.burstHit(kindLeafOutage, leaf, slot, f.p.LeafOutageRate, leafOutageBurst):
			obsLeafOutageDrops.Inc()
		case f.burstHit(kindDropout, id, slot, f.p.DropoutRate, dropoutBurst):
			obsDropped.Inc()
		default:
			if f.burstHit(kindStuck, id, slot, f.p.StuckRate, stuckBurst) {
				if last, ok := f.lastGood[id]; ok {
					watts = last
					obsStuck.Inc()
				}
			} else {
				if f.chance(kindSpike, id, slot) < f.p.SpikeRate {
					watts *= spikeFactor
					obsSpiked.Inc()
				}
				f.lastGood[id] = watts
			}
			if skew := f.Skew(id); skew != 0 {
				at = at.Add(skew)
				obsSkewed.Inc()
			}
			r := Reading{ID: id, At: at, Watts: watts}
			if f.p.ReorderFraction > 0 && f.chance(kindReorder, id, slot) < f.p.ReorderFraction {
				delay := 1 + int64(f.hash(kindReorderDelay, id, slot)%reorderDelaySlots)
				f.pending[id] = append(f.pending[id], pendingReading{release: slot + delay, r: r})
				obsReordered.Inc()
			} else {
				out = append(out, r)
			}
		}
	} else {
		out = append(out, Reading{ID: id, At: at, Watts: watts})
		f.lastGood[id] = watts
	}
	// Release delayed readings that are due — they deliver after newer
	// readings already have, i.e. out of order.
	out = append(out, f.release(id, slot)...)
	return out
}

// release drains the instance's reorder buffer up to the given slot.
func (f *Injector) release(id string, slot int64) []Reading {
	q := f.pending[id]
	if len(q) == 0 {
		return nil
	}
	var out []Reading
	rest := q[:0]
	for _, p := range q {
		if p.release <= slot {
			out = append(out, p.r)
		} else {
			rest = append(rest, p)
		}
	}
	if len(rest) == 0 {
		delete(f.pending, id)
	} else {
		f.pending[id] = rest
	}
	return out
}

// Flush drains every reorder buffer, returning the held readings sorted by
// instance then arrival order. Call it at the end of an ingest window so
// delayed readings are not lost.
func (f *Injector) Flush() []Reading {
	var out []Reading
	for _, id := range detmap.SortedKeys(f.pending) {
		for _, p := range f.pending[id] {
			out = append(out, p.r)
		}
		delete(f.pending, id)
	}
	return out
}

// TransientAppendFailure reports whether the store append for (id, at)
// fails retryably on the given attempt (0 = first try). Flaky appends fail
// one or two attempts and then succeed, so a bounded retry loop always
// lands the reading.
func (f *Injector) TransientAppendFailure(id string, at time.Time, attempt int) bool {
	if f.p.TransientRate <= 0 || !f.active(at) {
		return false
	}
	slot := f.slotOf(at)
	if f.chance(kindTransient, id, slot) >= f.p.TransientRate {
		return false
	}
	failures := 1 + int(f.hash(kindTransientLen, id, slot)%2)
	if attempt < failures {
		obsTransient.Inc()
		return true
	}
	return false
}

// TripsOverlapping returns the scheduled trips that intersect [from, to),
// sorted by node name then start — the runtime checks its tick window
// against these to drive the emergency capping path.
func (f *Injector) TripsOverlapping(from, to time.Time) []TripWindow {
	var out []TripWindow
	for _, t := range f.p.Trips {
		if t.overlaps(from, to) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Start.Before(out[j].Start)
	})
	obsActiveTrips.Set(float64(len(out)))
	return out
}
