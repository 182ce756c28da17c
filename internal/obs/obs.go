// Package obs is the repository's dependency-free observability layer:
// counters, gauges and fixed-bucket histograms behind a Registry, plus a
// Span stage-timing helper (span.go) and a Prometheus-text exposition
// (prom.go).
//
// The primitives are designed around the determinism contract the pipeline
// packages live under (see DESIGN.md):
//
//   - Counters and gauges are updated with commutative atomic operations, so
//     the final value after a batch of concurrent increments is independent
//     of scheduling. Pipeline code increments them only outside parallel
//     closures (after ForEach/Map return), which keeps the values themselves
//     bit-identical across replays at any worker count.
//   - Wall-clock reads live here and only here. The nondeterminism analyzer
//     (internal/analysis) forbids time.Now in pipeline packages; obs is
//     deliberately not one of them, owns the clock, and lets tests inject a
//     fake via NewWithClock. Timing histograms are therefore the one metric
//     family exempt from replay determinism.
//   - Update paths allocate nothing: instrumenting a zero-alloc kernel such
//     as score.VectorsParallel must not move its allocation budget.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use; all methods are safe for concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down, stored as atomic bits.
// The zero value reads 0 and is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations ≤ bounds[i] (Prometheus "le" semantics when exported
// cumulatively); one extra overflow bucket catches everything above the last
// bound. Observe is lock-free and allocation-free. A snapshot read while
// observers are active may be mid-update across buckets; the exposition
// keeps _count consistent with the cumulative buckets by construction.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last entry is the overflow bucket
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// kind discriminates the metric families a Registry can hold.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// metric is one registered name with its concrete instrument.
type metric struct {
	name    string
	help    string
	kind    kind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry owns a namespace of metrics and the clock every Span derived from
// it reads. Get-or-create accessors make registration idempotent: the same
// (name, kind) always returns the same instrument, so package-level metric
// variables and handler-local lookups share state. Registering a name twice
// with a different kind panics — that is a programming error, caught at
// init time.
type Registry struct {
	clock func() time.Time

	mu      sync.Mutex
	metrics map[string]*metric //smoothop:guardedby mu
}

// New returns an empty registry whose spans read the wall clock.
func New() *Registry { return NewWithClock(time.Now) }

// NewWithClock returns an empty registry with an explicit time source for
// Span timings; nil means the wall clock. Tests pass a fake clock to make
// timing histograms deterministic.
func NewWithClock(clock func() time.Time) *Registry {
	if clock == nil {
		clock = time.Now
	}
	return &Registry{clock: clock, metrics: make(map[string]*metric)}
}

// defaultRegistry is the process-global registry package-level instruments
// bind to at init.
var defaultRegistry = New()

// Default returns the process-global registry. The instrumented pipeline
// packages register their metrics here; smoothopd serves it on /metrics.
func Default() *Registry { return defaultRegistry }

// find returns the metric registered under name after checking the name is
// valid and the kind matches, or nil when the name is free. Callers hold mu.
//
// smoothop:locked mu
func (r *Registry) find(name string, k kind) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	m := r.metrics[name]
	if m != nil && m.kind != k {
		panic(fmt.Sprintf("obs: metric %q already registered as a %s, requested as a %s", name, m.kind, k))
	}
	return m
}

// Counter returns the counter registered under name, creating it on first
// use. help is recorded on creation and ignored afterwards.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.find(name, kindCounter); m != nil {
		return m.counter
	}
	c := &Counter{}
	r.metrics[name] = &metric{name: name, help: help, kind: kindCounter, counter: c}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.find(name, kindGauge); m != nil {
		return m.gauge
	}
	g := &Gauge{}
	r.metrics[name] = &metric{name: name, help: help, kind: kindGauge, gauge: g}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (bounds must be strictly
// increasing; they are copied). Later calls return the existing histogram
// and ignore bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.find(name, kindHistogram); m != nil {
		return m.hist
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds must be strictly increasing", name))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.metrics[name] = &metric{name: name, help: help, kind: kindHistogram, hist: h}
	return h
}

// validName reports whether name is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	for i, c := range name {
		switch {
		case c == '_' || c == ':':
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(name) > 0
}
