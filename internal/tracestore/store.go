// Package tracestore is the telemetry-collection substrate of the pipeline
// (Fig. 7, step 1: "collect traces and extract representative traces"). It
// ingests per-instance power readings as they arrive from power sensors,
// retains a bounded window, repairs gaps, and materialises the
// fixed-interval traces the rest of SmoothOperator consumes.
//
// The store is safe for concurrent use: sensor scrapers append from many
// goroutines while the placement pipeline reads snapshots.
package tracestore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/detmap"
)

// Errors returned by the store.
var (
	ErrUnknownInstance = errors.New("tracestore: unknown instance")
	ErrStale           = errors.New("tracestore: reading older than retention window")
	ErrBadReading      = errors.New("tracestore: invalid reading")
	// ErrBadCheckpoint marks a checkpoint Load refuses: a non-positive step
	// or retention, an unparsable timestamp, a ring that does not start on
	// the step grid, one whose length disagrees with the retention, one
	// whose latest reading lies past its last slot, or one holding a
	// reading in a slot after its latest reading's.
	ErrBadCheckpoint = errors.New("tracestore: bad checkpoint")

	errWeeks = errors.New("tracestore: weeks must be ≥ 1")
)

// Config tunes a Store. It is copied into the store at New and never
// modified afterwards.
//
// smoothop:immutable
type Config struct {
	// Step is the sampling interval readings are bucketed into. 0 means one
	// minute (the paper's sensor rate).
	Step time.Duration
	// Retention is how much history is kept per instance. 0 means 3 weeks
	// (the paper's 2 training + 1 test).
	Retention time.Duration
	// RejectImpulses drops single-sample glitches (a reading more than
	// twice the larger of its nearest real neighbours) from every
	// materialised window before gap repair, so a spiking sensor on the
	// edge of a dropout gap is not smeared across the gap as a synthetic
	// peak. It is the pipeline's only impulse filter: no read leaves a slot
	// above twice the larger of its neighbours, and core.Runtime scores
	// what the store returns as is. Off by default: the plain store
	// contract is exact recovery of every written reading; turn this on
	// for stores fed by untrusted sensors.
	RejectImpulses bool
}

func (c Config) step() time.Duration {
	if c.Step <= 0 {
		return time.Minute
	}
	return c.Step
}

func (c Config) retention() time.Duration {
	if c.Retention <= 0 {
		return 3 * 7 * 24 * time.Hour
	}
	return c.Retention
}

// Store collects per-instance power readings.
type Store struct {
	cfg Config
	// step and slots (the retention in steps) are fixed at New; stepSec is
	// the step in whole seconds, 0 when it is not a whole number of them.
	step    time.Duration
	stepSec int64
	slots   int

	mu        sync.RWMutex
	instances map[string]*ring //smoothop:guardedby mu
	// lastID and lastRing are the instance the last write went to and its
	// ring, so an instance-major feed skips the map lookup. Nothing deletes
	// an instance; whatever does must clear them.
	lastID   string //smoothop:guardedby mu
	lastRing *ring  //smoothop:guardedby mu
}

// ring is a per-instance circular buffer of slot values. Slot i, the
// reading for grid slot start+i, lives at values[(head+i) mod len(values)],
// so opening a new slot moves head instead of the values.
type ring struct {
	// start is the grid slot of ring slot 0, the oldest.
	start  int64
	head   int
	values []float64
	// latest is the newest reading's grid slot; count is the number of
	// slots holding a reading (NaN marks a gap).
	latest int64
	count  int
}

// New returns an empty store.
func New(cfg Config) *Store {
	step := cfg.step()
	s := &Store{cfg: cfg, step: step, slots: int(cfg.retention() / step), instances: make(map[string]*ring)}
	if step%time.Second == 0 {
		s.stepSec = int64(step / time.Second)
	}
	return s
}

// Step returns the store's bucketing interval.
func (s *Store) Step() time.Duration { return s.step }

// Retention returns how much history the store keeps per instance.
func (s *Store) Retention() time.Duration { return s.cfg.retention() }

// Instances returns the known instance IDs, sorted.
func (s *Store) Instances() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.instances))
	for id := range s.instances {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// The step grid. Grid slot k begins k steps after the zero time, the
// origin time.Time.Truncate rounds to, so a reading's slot is the one its
// truncated time begins and rings keep int64 slot numbers instead of times.
// Slot numbers are held within ±maxSlot, so the difference of two always
// fits in an int64. That bounds no step of 2 s or more; a step of d below
// it reaches 146 years·(d/1 ns) either side of the zero time: a 70 ns step
// still covers year 9999.
const (
	maxSlot = 1<<62 - 1
	// zeroToUnix is the number of seconds from the zero time to 1970.
	zeroToUnix = 62135596800
)

// slotOf returns the grid slot holding at, and false when its number lies
// beyond ±maxSlot.
func (s *Store) slotOf(at time.Time) (int64, bool) {
	// Seconds since the zero time: exact for every time.Time, since the
	// addition undoes Unix's offset even where that wrapped.
	sec := at.Unix() + zeroToUnix
	var k int64
	ok := true
	if s.stepSec > 0 {
		// A whole-second step: the nanoseconds never carry into the slot.
		if k = sec / s.stepSec; sec%s.stepSec < 0 {
			k--
		}
	} else {
		k, _, ok = floorDiv128(sec, 1e9, uint64(at.Nanosecond()), uint64(s.step))
	}
	return k, ok && -maxSlot <= k && k <= maxSlot
}

// slotTime returns the time grid slot k begins, in UTC.
func (s *Store) slotTime(k int64) time.Time {
	// The quotient overflows only for a slot no time.Time begins.
	sec, ns, _ := floorDiv128(k, uint64(s.step), 0, 1e9)
	return time.Unix(sec-zeroToUnix, int64(ns)).UTC()
}

// floorDiv128 returns floor((x·mul + add) / div) and its remainder,
// computed in 128 bits, for 0 ≤ add < mul; ok is false when the quotient
// overflows an int64.
func floorDiv128(x int64, mul, add, div uint64) (q int64, r uint64, ok bool) {
	u := uint64(x)
	if x < 0 {
		u = -u
	}
	hi, lo := bits.Mul64(u, mul)
	var carry uint64
	if x < 0 { // |x|·mul − add > 0
		lo, carry = bits.Sub64(lo, add, 0)
		hi -= carry
	} else {
		lo, carry = bits.Add64(lo, add, 0)
		hi += carry
	}
	if hi >= div {
		return 0, 0, false
	}
	uq, ur := bits.Div64(hi, lo, div)
	if x >= 0 {
		return int64(uq), ur, uq <= math.MaxInt64
	}
	if uq >= 1<<63 {
		return 0, 0, false
	}
	if ur != 0 { // the floor of a negative quotient
		uq, ur = uq+1, div-ur
	}
	return -int64(uq), ur, true
}

// Append ingests one power reading. Readings within the same slot overwrite
// (sensors occasionally double-report); a reading at or before the newest
// reading minus the retention window is rejected with ErrStale, so a late
// reading never evicts newer ones; non-finite or negative powers, and
// times beyond the step grid's range, are rejected with ErrBadReading.
// Newly seen instances are registered implicitly. It is AppendRun's run of
// one.
func (s *Store) Append(id string, at time.Time, watts float64) error {
	v := [1]float64{watts}
	_, err := s.appendRun(id, at, v[:])
	return err
}

// AppendRun ingests one instance's readings at consecutive slots:
// values[i] is the reading at start + i·step. It leaves the store exactly
// as Append would reading by reading, or, when one would fail, changes
// nothing and returns the first failure Append would meet, naming its
// reading. Only the first reading can be stale: the rest are newer.
func (s *Store) AppendRun(id string, start time.Time, values []float64) error {
	if i, err := s.appendRun(id, start, values); err != nil {
		return fmt.Errorf("tracestore: %q reading %d of a run from %v: %w", id, i, start, err)
	}
	return nil
}

// appendRun is the one ingest kernel: it validates every reading, then
// under one lock and one lookup moves the ring's origin at most once and
// copies the run in. On failure it returns the failing reading's index.
func (s *Store) appendRun(id string, at time.Time, values []float64) (int, error) {
	n := len(values)
	if n == 0 {
		return 0, nil
	}
	// The first reading failing on its own: an invalid value, or a slot
	// beyond the grid's range.
	bad, badErr := n, error(nil)
	for i, w := range values {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			bad, badErr = i, fmt.Errorf("%w: %v", ErrBadReading, w)
			break
		}
	}
	first, ok := s.slotOf(at)
	beyond := 0
	if ok {
		beyond = int(min(int64(n), maxSlot-first+1))
	}
	if beyond < bad {
		bad, badErr = beyond, fmt.Errorf("%w: %v is beyond the %v step grid's range", ErrBadReading, at.Add(time.Duration(beyond)*s.step), s.step)
	}
	if bad == 0 {
		return 0, badErr
	}
	slots := int64(s.slots)

	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.lastRing
	if r == nil || s.lastID != id {
		r = s.instances[id]
	}
	// Older than the ring's origin: accept only if still within the
	// retention window that ends at the newest reading, by shifting the
	// origin back. The slots this drops off the end are then all later
	// than the newest reading, so empty.
	if r != nil && first < r.start && (r.start-first >= slots || r.latest-first >= slots) {
		return 0, ErrStale
	}
	if bad < n {
		return bad, badErr
	}
	last := first + int64(n-1)
	// The origin moves back to the first reading or forward until the last
	// one fits, as far as the readings one by one would move it.
	origin := first
	if r != nil {
		origin = min(first, r.start)
	}
	if last-origin >= slots {
		origin = last - slots + 1
	}
	switch {
	case r == nil:
		r = &ring{start: origin, latest: last, values: nanSlice(s.slots)}
		s.instances[id] = r
	case origin < r.start:
		r.shiftBack(int(r.start - origin))
	case origin > r.start:
		r.advance(origin - r.start)
	}
	s.lastID, s.lastRing = id, r
	// Readings before the origin were evicted by the later ones.
	skip := max(0, int(origin-first))
	r.put(int(first-origin)+skip, values[skip:])
	r.latest = max(r.latest, last)
	return 0, nil
}

func nanSlice(n int) []float64 {
	v := make([]float64, n)
	fillNaN(v)
	return v
}

func fillNaN(v []float64) {
	for i := range v {
		v[i] = math.NaN()
	}
}

// pos is the index in values of slot i, 0 ≤ i < len(values).
func (r *ring) pos(i int) int {
	p := r.head + i
	if p >= len(r.values) {
		p -= len(r.values)
	}
	return p
}

// span returns the storage of slots [lo, hi), 0 ≤ lo ≤ hi ≤ len(values),
// as at most two runs in slot order.
func (r *ring) span(lo, hi int) (a, b []float64) {
	n := len(r.values)
	lo, hi = r.head+lo, r.head+hi
	switch {
	case lo >= n:
		return r.values[lo-n : hi-n], nil
	case hi <= n:
		return r.values[lo:hi], nil
	default:
		return r.values[lo:], r.values[:hi-n]
	}
}

// put writes vals into slots [i, i+len(vals)), counting the slots it fills.
func (r *ring) put(i int, vals []float64) {
	a, b := r.span(i, i+len(vals))
	r.count += fill(a, vals) + fill(b, vals[len(a):])
}

// fill copies src into dst and returns how many slots of dst held no
// reading before.
func fill(dst, src []float64) int {
	filled := 0
	for j := range dst {
		if math.IsNaN(dst[j]) {
			filled++
		}
		dst[j] = src[j]
	}
	return filled
}

// copyCount copies slots [lo, hi) into dst (hi-lo long) and returns how many hold a
// reading and the index in dst of the last one (-1 when none).
func (r *ring) copyCount(dst []float64, lo, hi int) (real, last int) {
	a, b := r.span(lo, hi)
	k := copy(dst, a)
	copy(dst[k:], b)
	for _, v := range dst {
		if !math.IsNaN(v) {
			real++
		}
	}
	last = len(dst) - 1
	for last >= 0 && math.IsNaN(dst[last]) {
		last--
	}
	return real, last
}

// empty empties slots [lo, hi), taking their readings out of the count.
func (r *ring) empty(lo, hi int) {
	for i := lo; i < hi; i++ {
		if p := &r.values[r.pos(i)]; !math.IsNaN(*p) {
			r.count--
			*p = math.NaN()
		}
	}
}

// shiftBack moves the origin back by n < len(values) slots: the n newest
// slots are emptied and become the n oldest.
func (r *ring) shiftBack(n int) {
	slots := len(r.values)
	r.empty(slots-n, slots)
	r.head = r.pos(slots - n)
	r.start -= int64(n)
}

// advance moves the window forward by n slots: the n oldest slots are
// emptied and become the n newest.
func (r *ring) advance(n int64) {
	slots := len(r.values)
	r.start += n
	if n >= int64(slots) {
		fillNaN(r.values)
		r.head, r.count = 0, 0
		return
	}
	r.empty(0, int(n))
	r.head = r.pos(int(n))
}

// Coverage returns the fraction of retained slots holding a reading for an
// instance, within the span it has reported over.
func (s *Store) Coverage(id string) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.instances[id]
	if r == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownInstance, id)
	}
	if r.latest < r.start {
		return 0, nil
	}
	return float64(r.count) / float64(r.latest-r.start+1), nil
}

// interpolate repairs NaN gaps in place.
func interpolate(vals []float64) error {
	first, last := -1, -1
	for i, v := range vals {
		if !math.IsNaN(v) {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return errors.New("no readings in window")
	}
	for i := 0; i < first; i++ {
		vals[i] = vals[first]
	}
	for i := last + 1; i < len(vals); i++ {
		vals[i] = vals[last]
	}
	i := first
	for i <= last {
		if !math.IsNaN(vals[i]) {
			i++
			continue
		}
		// Gap [i, j): find the next reading.
		j := i
		for math.IsNaN(vals[j]) {
			j++
		}
		lo, hi := vals[i-1], vals[j]
		for k := i; k < j; k++ {
			frac := float64(k-i+1) / float64(j-i+1)
			vals[k] = lo + (hi-lo)*frac
		}
		i = j
	}
	return nil
}

// checkpoint is the persisted form of the store.
type checkpoint struct {
	StepSeconds      float64                 `json:"step_seconds"`
	RetentionSeconds float64                 `json:"retention_seconds"`
	RejectImpulses   bool                    `json:"reject_impulses,omitempty"`
	Instances        map[string]instanceDump `json:"instances"`
}

type instanceDump struct {
	Start  string    `json:"start"`
	Latest string    `json:"latest"`
	Values []float64 `json:"values"` // NaN encoded as -1 sentinel
}

// Save writes a checkpoint of the store.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cp := checkpoint{
		StepSeconds:      s.step.Seconds(),
		RetentionSeconds: s.cfg.retention().Seconds(),
		RejectImpulses:   s.cfg.RejectImpulses,
		Instances:        make(map[string]instanceDump, len(s.instances)),
	}
	for id, r := range s.instances {
		a, b := r.span(0, len(r.values))
		vals := slices.Concat(a, b)
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = -1
			}
		}
		cp.Instances[id] = instanceDump{
			Start:  s.slotTime(r.start).Format(time.RFC3339Nano),
			Latest: s.slotTime(r.latest).Format(time.RFC3339Nano),
			Values: vals,
		}
	}
	return json.NewEncoder(w).Encode(cp)
}

// Load restores a checkpoint written by Save.
func Load(r io.Reader) (*Store, error) {
	var cp checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, err
	}
	step, ok := checkpointDuration(cp.StepSeconds)
	if !ok {
		return nil, fmt.Errorf("%w: step %v s is not a positive duration", ErrBadCheckpoint, cp.StepSeconds)
	}
	retention, ok := checkpointDuration(cp.RetentionSeconds)
	if !ok || retention < step {
		return nil, fmt.Errorf("%w: retention %v s is shorter than one step", ErrBadCheckpoint, cp.RetentionSeconds)
	}
	st := New(Config{Step: step, Retention: retention, RejectImpulses: cp.RejectImpulses})
	slots := st.slots
	// The store is not yet shared, but instances is guarded state: take the
	// lock so the contract holds on every path.
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range detmap.SortedKeys(cp.Instances) {
		dump := cp.Instances[id]
		// RFC3339 parsing accepts the fractional seconds RFC3339Nano writes,
		// so checkpoints from before sub-second precision still load.
		start, err := time.Parse(time.RFC3339, dump.Start)
		if err != nil {
			return nil, fmt.Errorf("%w: bad start for %q: %w", ErrBadCheckpoint, id, err)
		}
		latest, err := time.Parse(time.RFC3339, dump.Latest)
		if err != nil {
			return nil, fmt.Errorf("%w: bad latest for %q: %w", ErrBadCheckpoint, id, err)
		}
		// A ring holds grid slot numbers, so its start and latest must lie on
		// the step grid, as Append writes them, and within its range.
		first, ok := st.slotOf(start)
		if !ok || !start.Truncate(step).Equal(start) {
			return nil, fmt.Errorf("%w: start %v of %q is off the %v step grid", ErrBadCheckpoint, start, id, step)
		}
		newest, ok := st.slotOf(latest)
		if !ok || !latest.Truncate(step).Equal(latest) {
			return nil, fmt.Errorf("%w: latest %v of %q is off the %v step grid", ErrBadCheckpoint, latest, id, step)
		}
		if len(dump.Values) != slots {
			return nil, fmt.Errorf("%w: %q holds %d slots, retention needs %d", ErrBadCheckpoint, id, len(dump.Values), slots)
		}
		// The newest reading lies in the ring, as Save writes it; Coverage
		// divides by the span from start to latest.
		if newest-first >= int64(slots) {
			return nil, fmt.Errorf("%w: latest %v of %q is past its last slot", ErrBadCheckpoint, latest, id)
		}
		// Append trusts latest to bound the readings: shifting the origin
		// back empties the newest slots, which must all be later than latest.
		lastSlot := -1
		if newest >= first {
			lastSlot = int(newest - first)
		}
		vals := make([]float64, len(dump.Values))
		count := 0
		for i, v := range dump.Values {
			if v < 0 {
				vals[i] = math.NaN()
				continue
			}
			if i > lastSlot {
				return nil, fmt.Errorf("%w: %q holds a reading in slot %d, after latest %v", ErrBadCheckpoint, id, i, latest)
			}
			vals[i] = v
			count++
		}
		st.instances[id] = &ring{start: first, latest: newest, values: vals, count: count}
	}
	return st, nil
}

// checkpointDuration converts persisted seconds back to a Duration, rounding
// to the nanosecond; ok is false unless the result is positive and fits.
func checkpointDuration(seconds float64) (time.Duration, bool) {
	ns := math.Round(seconds * float64(time.Second))
	if !(ns > 0 && ns < math.MaxInt64) {
		return 0, false
	}
	return time.Duration(ns), true
}
