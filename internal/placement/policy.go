package placement

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

// Redesigned policy/capacity API.
//
// Policy selection is a single options struct: callers build a PolicyConfig
// (kind, seed, FARB weights, optional demand resolver) and hand it to
// NewOnline; custom implementations plug in through the Custom field.

// DemandFn resolves an instance ID to its multi-resource demand vector.
// Returning ok=false (or a nil vector) means the instance demands nothing
// beyond power. Like TraceFn, implementations must be safe for concurrent
// calls.
type DemandFn func(id string) (powertree.ResourceVector, bool)

// PolicyKind selects one of the built-in online policies.
type PolicyKind string

// The built-in policy kinds.
const (
	// PolicyAsynchrony is the paper's workload-aware policy (§3.6 applied at
	// admission time) — the default.
	PolicyAsynchrony PolicyKind = "asynchrony"
	// PolicyBestFit is the classic tightest-fit bin-packing baseline.
	PolicyBestFit PolicyKind = "best-fit"
	// PolicyRandom picks uniformly among feasible leaves from a seeded
	// stream.
	PolicyRandom PolicyKind = "random"
	// PolicyFARB is the multi-resource composite: balance across residual
	// dimensions + fullness + L2 residual, optionally blended with the
	// asynchrony score (see score.Composite).
	PolicyFARB PolicyKind = "farb"
)

// ErrUnknownPolicyKind rejects a PolicyConfig naming no built-in policy.
var ErrUnknownPolicyKind = errors.New("placement: unknown policy kind")

// PolicyConfig is the single options struct the redesigned constructors
// consume. The zero value is valid and selects the asynchrony policy with
// no demand model — the paper's bit-exact power-only path.
type PolicyConfig struct {
	// Kind selects a built-in policy; empty means PolicyAsynchrony.
	Kind PolicyKind
	// Seed fixes the decision stream of PolicyRandom (ignored otherwise).
	Seed int64
	// Weights tune the PolicyFARB composite; the zero value means
	// score.DefaultFARBWeights.
	Weights score.FARBWeights
	// Custom, when non-nil, overrides Kind with a caller-supplied policy.
	Custom Policy
	// Demands optionally resolves per-instance resource demands so the
	// placer can enforce capacity dimensions and expose residual vectors to
	// policies. Nil means no instance demands anything beyond power.
	// Demands on the arriving Instance itself take precedence.
	Demands DemandFn
}

// NewPolicy instantiates the policy a config describes. Random policies
// carry a decision stream, so every call returns a fresh value.
func NewPolicy(cfg PolicyConfig) (Policy, error) {
	if cfg.Custom != nil {
		return cfg.Custom, nil
	}
	switch cfg.Kind {
	case "", PolicyAsynchrony:
		return OnlineAsynchrony{}, nil
	case PolicyBestFit:
		return OnlineBestFit{}, nil
	case PolicyRandom:
		return &OnlineRandom{rng: newRand(cfg.Seed)}, nil
	case PolicyFARB:
		if err := cfg.Weights.Validate(); err != nil {
			return nil, err
		}
		return OnlineFARB{Weights: cfg.Weights}, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownPolicyKind, cfg.Kind)
}

// OnlineFARB is the multi-resource stranded-capacity-aware policy: each
// feasible leaf is scored by the FARB composite over its post-admission
// residual fractions (power first, then the leaf's declared capacity
// dimensions), lower cost wins. With Weights.Asynchrony > 0 the composite
// subtracts the candidate's normalized differential asynchrony score, so
// the policy balances residual dimensions while keeping the paper's
// power-smoothing pressure. Ties break toward the tighter power fit, then
// tree order.
type OnlineFARB struct {
	// Weights tune the composite; zero value means the defaults.
	Weights score.FARBWeights
}

// Name implements Policy.
func (OnlineFARB) Name() string { return "farb" }

// Choose implements Policy.
func (p OnlineFARB) Choose(cands []OnlineCandidate, _ Instance, tr timeseries.Series) (int, error) {
	w := p.Weights.OrDefault()
	best, bestCost, bestHead := -1, math.Inf(1), math.Inf(1)
	for i := range cands {
		c := &cands[i]
		asyncNorm := 0.0
		if w.Asynchrony > 0 {
			asyncNorm = 1 // an empty leaf cannot overlap with anything
			if c.Count > 0 {
				s, err := c.differential(tr)
				if err != nil {
					return 0, err
				}
				// Differential is a two-trace asynchrony score in [1, 2];
				// shift to [0, 1].
				asyncNorm = s - 1
			}
		}
		cost, err := score.Composite(w, c.Residuals(), asyncNorm)
		if err != nil {
			return 0, fmt.Errorf("composite for %q: %w", c.Leaf.Name, err)
		}
		if cost < bestCost || (cost == bestCost && c.Headroom() < bestHead) {
			best, bestCost, bestHead = i, cost, c.Headroom()
		}
	}
	return best, nil
}
