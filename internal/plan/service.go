package plan

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// SnapshotFn produces the snapshot a query evaluates against. The runtime
// supplies one that returns a cached snapshot of its current placement,
// re-captured only after ticks and admissions mutate it — so concurrent
// queries between mutations share one snapshot (and its lazily computed
// baseline report) instead of re-cloning per request.
type SnapshotFn func() (*Snapshot, error)

// Config tunes a planning Service. The zero value takes every default.
//
// smoothop:immutable
type Config struct {
	// MaxInFlight bounds concurrent evaluations; arrivals past it are shed
	// with ErrOverloaded until in-flight work drains below the readmit
	// threshold (half of MaxInFlight). 0 means 16.
	MaxInFlight int
	// Deadline bounds one evaluation; a query still running at the deadline
	// fails with context.DeadlineExceeded. 0 means 2s.
	Deadline time.Duration
}

// Service evaluates what-if queries with bounded concurrency and bounded
// latency. It is safe for concurrent use.
type Service struct {
	snapshot SnapshotFn
	deadline time.Duration
	gate     *gate
}

// Defaults applied by NewService for zero Config fields.
const (
	DefaultMaxInFlight = 16
	DefaultDeadline    = 2 * time.Second
)

// Construction errors.
var (
	ErrNilSnapshotFn = errors.New("plan: service needs a snapshot source")
	ErrBadConfig     = errors.New("plan: bad service config")
)

// NewService builds a planning service over the given snapshot source.
func NewService(snapshot SnapshotFn, cfg Config) (*Service, error) {
	if snapshot == nil {
		return nil, ErrNilSnapshotFn
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("%w: max in-flight %d must not be negative", ErrBadConfig, cfg.MaxInFlight)
	}
	if cfg.Deadline < 0 {
		return nil, fmt.Errorf("%w: deadline %v must not be negative", ErrBadConfig, cfg.Deadline)
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	deadline := cfg.Deadline
	if deadline == 0 {
		deadline = DefaultDeadline
	}
	return &Service{
		snapshot: snapshot,
		deadline: deadline,
		gate:     newGate(maxInFlight, maxInFlight/2),
	}, nil
}

// RetryAfter is the client back-off hint attached to shed responses: the
// per-query deadline rounded up to whole seconds (at least 1s) — by then at
// least one in-flight slot is guaranteed to have freed.
func (s *Service) RetryAfter() time.Duration {
	d := s.deadline.Round(time.Second)
	if d < s.deadline {
		d += time.Second
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Evaluate answers one query: acquire an in-flight slot (or shed with
// ErrOverloaded), capture the current snapshot, and evaluate under the
// service deadline. The evaluation runs entirely on snapshot-private state,
// so concurrent Evaluate calls never contend beyond the slot counter and
// never block the runtime that produced the snapshot.
func (s *Service) Evaluate(ctx context.Context, q Query) (*Result, error) {
	if !s.gate.acquire() {
		obsShed.Inc()
		return nil, ErrOverloaded
	}
	defer s.gate.release()
	timer := obsEvalSpan.Start()
	defer timer.End()

	ctx, cancel := context.WithTimeout(ctx, s.deadline)
	defer cancel()

	snap, err := s.snapshot()
	if err != nil {
		obsQueryErrors.Inc()
		return nil, fmt.Errorf("plan: capturing snapshot: %w", err)
	}
	res, err := snap.Evaluate(ctx, q, 0)
	if err != nil {
		obsQueryErrors.Inc()
		return nil, err
	}
	obsQueries.Inc()
	return res, nil
}
