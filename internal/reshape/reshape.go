// Package reshape implements the paper's dynamic power profile reshaping
// (§4): the history-based server conversion policy for storage-
// disaggregated servers and the augmented proactive throttling-and-boosting
// policy, plus the threshold learning that both are driven by.
//
// The policies plug into the sim package's runtime: at each step they
// observe the average per-LC-server load and decide how many conversion
// servers run LC vs Batch duty and how Batch DVFS is set.
package reshape

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/timeseries"
)

// ErrNoHistory is returned when threshold learning gets no training data.
var ErrNoHistory = errors.New("reshape: no training history")

// LearnThreshold learns the conversion threshold Lconv from historical
// per-LC-server load (§4.2: "we learn the guarded per-LC-server load level
// from the historical data, namely the load level of each server when LC
// achieves satisfactory QoS"). It returns the highest load level observed
// while QoS held (loads at or below qosKnee), shaved by a safety margin.
// If training never approached the knee, the knee itself (with margin) is
// returned, since history then provides no tighter bound.
func LearnThreshold(perServerLoad timeseries.Series, qosKnee, margin float64) (float64, error) {
	if perServerLoad.Empty() {
		return 0, ErrNoHistory
	}
	if qosKnee <= 0 || qosKnee > 1 {
		return 0, fmt.Errorf("reshape: qosKnee must be in (0,1], got %v", qosKnee)
	}
	if margin < 0 || margin >= 1 {
		return 0, fmt.Errorf("reshape: margin must be in [0,1), got %v", margin)
	}
	best := 0.0
	for _, v := range perServerLoad.Values {
		if v <= qosKnee && v > best {
			best = v
		}
	}
	if best == 0 {
		best = qosKnee
	}
	lconv := best * (1 - margin)
	if lconv > qosKnee {
		lconv = qosKnee
	}
	return lconv, nil
}

// StaticLC is the §4.1 strawman: every added server is LC-specific and
// always serves LC, leaving them underutilized off-peak.
type StaticLC struct {
	// Conv is the number of added servers, all pinned to LC duty.
	Conv int
}

// Name implements sim.Policy.
func (StaticLC) Name() string { return "static-lc" }

// Decide implements sim.Policy.
func (p StaticLC) Decide(sim.State) sim.Action {
	return sim.Action{ConvLC: p.Conv, BatchFreq: 1}
}

// Conversion is the history-based server conversion policy (§4.2).
//
// Phases: when the average load over the original LC servers is below
// Lconv·(1−hysteresis) the datacenter is in Batch-heavy Phase and the
// conversion pool runs Batch; when the average approaches Lconv the pool
// converts to LC (LC-heavy Phase). Conversion granularity is per-server:
// only as many servers convert as are needed to pull the per-server load
// back under Lconv, keeping the rest on Batch duty.
type Conversion struct {
	// NLC is the original LC population.
	NLC int
	// Pool is the conversion-server pool size.
	Pool int
	// Lconv is the learned conversion threshold.
	Lconv float64
}

// The reshaping operating points. They are float64 variables rather than
// constants so that expressions such as 1 − throttleFreq round as float64
// arithmetic, not as exact constant arithmetic.
var (
	// hysteresis keeps servers on Batch duty until load reaches
	// Lconv·(1−hysteresis); it avoids mode flapping.
	hysteresis = 0.05
	// throttleFreq is ThrottleBoost's Batch frequency during LC-heavy Phase.
	throttleFreq = 0.7
	// boostFreq is ThrottleBoost's Batch frequency while repaying deficit.
	boostFreq = 1.15
	// repayFactor is how much boosted work is performed per unit of
	// throttled work: 1 would repay exactly; 2 over-repays, which is what
	// yields the paper's small *positive* extra Batch throughput
	// (1.2–2.4%, §5.2.2) — the queue always holds work, so boosting past
	// the deficit converts leftover off-peak budget into extra batch work.
	repayFactor = 2.0
)

// Name implements sim.Policy.
func (Conversion) Name() string { return "conversion" }

// neededLC returns how many helper servers must run LC so that per-server
// load stays at or below lconv.
func neededLC(offered, lconv float64, nlc, pool int) int {
	if lconv <= 0 {
		return pool
	}
	// Smallest k with offered/(nlc+k) ≤ lconv.
	need := int(offered/lconv) + 1 - nlc
	if need < 0 {
		need = 0
	}
	if need > pool {
		need = pool
	}
	return need
}

// Decide implements sim.Policy.
func (p Conversion) Decide(s sim.State) sim.Action {
	target := p.Lconv * (1 - hysteresis)
	loadOverOriginal := s.OfferedLoad / float64(p.NLC)
	if loadOverOriginal < target {
		// Batch-heavy Phase: all conversion servers do Batch work.
		return sim.Action{ConvLC: 0, BatchFreq: 1}
	}
	// LC-heavy Phase: proactively convert enough servers to pull per-server
	// load back to the guarded level below the threshold.
	return sim.Action{ConvLC: neededLC(s.OfferedLoad, target, p.NLC, p.Pool), BatchFreq: 1}
}

// ThrottleBoost is the augmented policy (§4.2): on top of conversion it
// proactively throttles Batch during LC-heavy Phase — freeing budget for an
// extra pool of conversion servers — and boosts Batch during Batch-heavy
// Phase "to compensate for the loss of throughput caused by the throttling".
//
// The policy tracks the batch work deferred while throttled and boosts only
// while the (over-)repayment target is outstanding, which keeps the extra
// Batch gain over plain conversion small (the paper reports 1.2–2.4%,
// §5.2.2). ThrottleBoost is stateful; use a fresh value per simulation run.
type ThrottleBoost struct {
	// NLC is the original LC population.
	NLC int
	// NBatch is the original Batch population (needed to account the
	// throttling deficit).
	NBatch int
	// Pool is the base conversion pool; ExtraPool is the throttle-enabled
	// pool (e_th).
	Pool, ExtraPool int
	// Lconv is the learned conversion threshold.
	Lconv float64

	// deficit is the batch work (nominal server-steps) lost to throttling
	// and not yet repaid by boosting.
	deficit float64
}

// Name implements sim.Policy.
func (*ThrottleBoost) Name() string { return "throttle-boost" }

// Decide implements sim.Policy.
func (p *ThrottleBoost) Decide(s sim.State) sim.Action {
	// The augmented trigger watches the load over the original servers plus
	// the base conversion pool (§4.2: "we monitor the load of the original
	// set of LC servers and of the LC servers in e_conv").
	target := p.Lconv * (1 - hysteresis)
	loadOverExtended := s.OfferedLoad / float64(p.NLC+p.Pool)
	if loadOverExtended < target {
		// Batch-heavy Phase: boost only while there is throttled work to
		// repay.
		freq := 1.0
		if p.deficit > 0 {
			freq = boostFreq
			p.deficit -= float64(p.NBatch) * (boostFreq - 1)
		}
		return sim.Action{
			ConvLC:    neededLC(s.OfferedLoad, target, p.NLC, p.Pool),
			BatchFreq: freq,
		}
	}
	// LC-heavy Phase: throttle Batch first, then draft the extra pool.
	p.deficit += float64(p.NBatch) * (1 - throttleFreq) * repayFactor
	base := neededLC(s.OfferedLoad, target, p.NLC, p.Pool)
	extra := 0
	if base == p.Pool {
		extra = neededLC(s.OfferedLoad, target, p.NLC+p.Pool, p.ExtraPool)
	}
	return sim.Action{ConvLC: base, ThrottleConvLC: extra, BatchFreq: throttleFreq}
}

// Interface checks.
var (
	_ sim.Policy = StaticLC{}
	_ sim.Policy = Conversion{}
	_ sim.Policy = (*ThrottleBoost)(nil)
)
