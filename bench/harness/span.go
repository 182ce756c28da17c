package harness

import (
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one operation share Op; the
// operation itself is the root span (Parent < 0) and every layer call made
// on its behalf names it as Parent.
type Span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int64         `json:"op_id"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory for the whole run; nothing is written
// until the run ends. It is safe for concurrent clients.
type Recorder struct {
	clock func() time.Time
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder reading the given clock (the wall clock in
// the benchmark, a fake in tests).
func NewRecorder(clock func() time.Time) *Recorder {
	return &Recorder{clock: clock, epoch: clock()}
}

// Begin opens a span and returns its index for End and for children's
// Parent. parent < 0 opens a root span.
func (r *Recorder) Begin(name, layer string, parent int, op int64) int {
	now := r.clock().Sub(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Layer: layer, Start: now, End: now, Parent: parent, Op: op})
	return len(r.spans) - 1
}

// End closes the span and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	now := r.clock().Sub(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].Duration()
}

// Restart moves an open span's start to now. The benchmark opens an
// operation's root span first, so the re-enacted layer calls can name it as
// their parent, and restarts it just before the real operation runs.
func (r *Recorder) Restart(id int) {
	now := r.clock().Sub(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].Start, r.spans[id].End = now, now
}

// NameOf returns a span's name.
func (r *Recorder) NameOf(id int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].Name
}

// OpOf returns the operation a span belongs to.
func (r *Recorder) OpOf(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].Op
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span, its duration minus the time its direct
// children account for. The benchmark re-enacts an operation's layer calls
// one after another next to the real operation rather than inside it, so a
// child's cover is its own duration, not an overlap of intervals. overrun
// counts spans whose children account for more than the span itself; their
// self time is clamped to zero.
func SelfTimes(spans []Span) (self []time.Duration, overrun int) {
	self = make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.Duration()
	}
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			self[s.Parent] -= s.Duration()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
			overrun++
		}
	}
	return self, overrun
}
