package sim

import (
	"fmt"

	"repro/internal/timeseries"
)

// State is what a reshaping policy observes at each step.
type State struct {
	// OfferedLoad is the LC load offered this step, in units of one
	// server's guarded capacity (so OfferedLoad/NLC is the per-original-
	// LC-server load when no conversion server helps).
	OfferedLoad float64
}

// Action is what a policy decides for the next step.
type Action struct {
	// ConvLC is how many of the base conversion pool to run in LC mode; the
	// remainder runs Batch.
	ConvLC int
	// ThrottleConvLC is how many of the throttle-enabled extra pool to run
	// in LC mode; the remainder idles in Batch mode.
	ThrottleConvLC int
	// BatchFreq is the relative DVFS frequency for Batch servers.
	BatchFreq float64
}

// Policy decides conversion-server modes and Batch frequency each step.
type Policy interface {
	// Decide returns the action for this step given the observed state.
	Decide(s State) Action
	// Name labels the policy in reports.
	Name() string
}

// Config describes one simulation run.
type Config struct {
	// LCLoad is the offered LC load per step, in units of one server's
	// guarded capacity. A value of NLC means the original fleet runs exactly
	// at the conversion threshold.
	LCLoad timeseries.Series
	// NLC and NBatch are the original server populations.
	NLC, NBatch int
	// NConv is the base conversion-server pool (fills placement headroom).
	NConv int
	// NThrottleConv is the extra conversion pool enabled by proactive
	// throttling (e_th in §4.2).
	NThrottleConv int
	// LCServer and BatchServer are the power models.
	LCServer, BatchServer ServerModel
	// Freq is the DVFS window for Batch servers.
	Freq DVFS
	// Budget is the power budget the whole population must fit under.
	Budget float64
	// Lconv is the guarded per-LC-server load threshold (learned from
	// history; see reshape.LearnThreshold).
	Lconv float64
	// QoSKnee is the per-server load above which QoS is violated.
	QoSKnee float64
	// ConvIdlePower is the draw of a parked conversion-pool server (deep
	// sleep while neither serving LC nor holding batch work — storage stays
	// available on the disaggregated storage nodes, so compute can sleep).
	// 0 means the batch server's idle draw (no sleep state).
	ConvIdlePower float64
	// BatchWorkCap bounds available batch work as a multiple of the
	// original Batch fleet's nominal rate (queue depth): total batch work
	// per step never exceeds BatchWorkCap × NBatch. Helpers beyond the
	// available work idle. 0 means unbounded. This models §5.2.2's DC3
	// finding: a small Batch tier limits how much extra batch work
	// conversion servers and boosting can actually perform.
	BatchWorkCap float64
	// Policy decides reshaping actions.
	Policy Policy
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LCLoad.Empty() {
		return fmt.Errorf("%w: empty LC load", ErrModel)
	}
	if c.NLC <= 0 || c.NBatch < 0 || c.NConv < 0 || c.NThrottleConv < 0 {
		return fmt.Errorf("%w: bad populations", ErrModel)
	}
	if err := c.LCServer.Validate(); err != nil {
		return err
	}
	if err := c.BatchServer.Validate(); err != nil {
		return err
	}
	if err := c.Freq.Validate(); err != nil {
		return err
	}
	if c.Budget <= 0 {
		return fmt.Errorf("%w: budget must be positive", ErrModel)
	}
	if c.Lconv <= 0 || c.Lconv > 1 {
		return fmt.Errorf("%w: Lconv must be in (0,1]", ErrModel)
	}
	if c.QoSKnee <= 0 || c.QoSKnee > 1 {
		return fmt.Errorf("%w: QoSKnee must be in (0,1]", ErrModel)
	}
	if c.Policy == nil {
		return fmt.Errorf("%w: nil policy", ErrModel)
	}
	return nil
}

// Result aggregates a run.
type Result struct {
	// PerLCServerLoad is the per-active-LC-server load series (Fig. 12 top).
	PerLCServerLoad timeseries.Series
	// LCThroughput is served LC load per step (Fig. 12 bottom).
	LCThroughput timeseries.Series
	// BatchThroughput is Batch work per step in nominal-server units
	// (Fig. 12 middle).
	BatchThroughput timeseries.Series
	// Power is total draw per step.
	Power timeseries.Series
	// TotalLC and TotalBatch are summed throughputs.
	TotalLC, TotalBatch float64
	// QoSViolations counts steps where per-LC-server load exceeded QoSKnee.
	QoSViolations int
	// CapEvents counts steps where the capping backstop had to act.
	CapEvents int
	// OverBudgetSteps counts steps still over budget after capping (should
	// be zero; non-zero indicates the policy is unsafe).
	OverBudgetSteps int
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.LCLoad.Len()
	// The four result series share one backing slab (capped slices, so an
	// append on one can never spill into its neighbour): one allocation
	// instead of four, which matters when RunMany fans out thousands of
	// policy/config simulations.
	slab := make([]float64, 4*n)
	series := func(k int) timeseries.Series {
		return timeseries.Series{Start: cfg.LCLoad.Start, Step: cfg.LCLoad.Step, Values: slab[k*n : (k+1)*n : (k+1)*n]}
	}
	res := &Result{
		PerLCServerLoad: series(0),
		LCThroughput:    series(1),
		BatchThroughput: series(2),
		Power:           series(3),
	}
	for i := 0; i < n; i++ {
		offered := cfg.LCLoad.Values[i]
		act := cfg.Policy.Decide(State{OfferedLoad: offered})
		act.ConvLC = clampInt(act.ConvLC, 0, cfg.NConv)
		act.ThrottleConvLC = clampInt(act.ThrottleConvLC, 0, cfg.NThrottleConv)
		act.BatchFreq = cfg.Freq.Clamp(act.BatchFreq)
		batchFreq := act.BatchFreq

		// LC serving: offered load spreads over all LC-mode servers; each
		// server serves at most load 1.0 (QoS degrades past the knee).
		activeLC := cfg.NLC + act.ConvLC + act.ThrottleConvLC
		perServer := offered / float64(activeLC)
		served := offered
		if perServer > 1 {
			served = float64(activeLC)
			perServer = 1
		}
		if perServer > cfg.QoSKnee {
			res.QoSViolations++
		}

		// Batch work: original batch servers at the chosen frequency plus
		// base-pool conversion servers currently in Batch mode — the latter
		// bounded by available queued work. Boost is exempt from the cap:
		// it repays base work deferred by earlier throttling, it does not
		// consume extra queue. The throttle-enabled extra pool exists for
		// peak LC capacity and idles outside LC-heavy phases.
		convBatch := cfg.NConv - act.ConvLC
		idlePool := cfg.NThrottleConv - act.ThrottleConvLC
		activeConvBatch := convBatch
		if cfg.BatchWorkCap > 0 && cfg.NBatch > 0 {
			extraAvail := (cfg.BatchWorkCap - 1) * float64(cfg.NBatch)
			if extraAvail < 0 {
				extraAvail = 0
			}
			if float64(activeConvBatch) > extraAvail {
				// Small epsilon guards against float truncation (e.g.
				// (1.2−1)×20 = 3.999… must count as 4 slots).
				activeConvBatch = int(extraAvail + 1e-9)
			}
		}
		idleConvBatch := convBatch - activeConvBatch
		batchWork := float64(cfg.NBatch)*cfg.Freq.Throughput(batchFreq) + float64(activeConvBatch)

		// Power accounting.
		parkedPower := cfg.ConvIdlePower
		if parkedPower <= 0 {
			parkedPower = cfg.BatchServer.Power(0)
		}
		lcPower := float64(activeLC) * cfg.LCServer.Power(perServer)
		batchPower := float64(cfg.NBatch)*cfg.Freq.Power(cfg.BatchServer, batchFreq) +
			float64(activeConvBatch)*cfg.BatchServer.Power(1) +
			float64(idleConvBatch+idlePool)*parkedPower
		power := lcPower + batchPower

		// Capping backstop: if over budget, first clamp Batch to MinFreq,
		// then shed conversion-server Batch work, finally shed LC load.
		if power > cfg.Budget {
			res.CapEvents++
			over := power - cfg.Budget
			// 1. Throttle batch to the floor.
			floorPower := float64(cfg.NBatch) * cfg.Freq.Power(cfg.BatchServer, cfg.Freq.MinFreq)
			curBatchBase := float64(cfg.NBatch) * cfg.Freq.Power(cfg.BatchServer, batchFreq)
			saved := curBatchBase - floorPower
			if saved > 0 {
				if saved >= over {
					// Partial throttle proportional to the overage.
					frac := over / saved
					batchWork -= float64(cfg.NBatch) * (cfg.Freq.Throughput(batchFreq) - cfg.Freq.Throughput(cfg.Freq.MinFreq)) * frac
					power -= over
					over = 0
				} else {
					batchWork -= float64(cfg.NBatch) * (cfg.Freq.Throughput(batchFreq) - cfg.Freq.Throughput(cfg.Freq.MinFreq))
					power -= saved
					over -= saved
				}
			}
			// 2. Idle conversion-batch servers.
			if over > 0 && activeConvBatch > 0 {
				perConv := cfg.BatchServer.Power(1) - cfg.BatchServer.Power(0)
				need := int(over/perConv) + 1
				if need > activeConvBatch {
					need = activeConvBatch
				}
				batchWork -= float64(need)
				power -= float64(need) * perConv
				if over = power - cfg.Budget; over < 0 {
					over = 0
				}
			}
			// 3. Shed LC load (forced idleness).
			if over > 0 {
				perUnit := (cfg.LCServer.Peak - cfg.LCServer.Idle) / 1.0 // power per unit load on one server
				shed := over / perUnit
				if shed > served {
					shed = served
				}
				served -= shed
				power -= shed * perUnit
				perServer = served / float64(activeLC)
			}
			if power > cfg.Budget+1e-6 {
				res.OverBudgetSteps++
			}
		}

		res.PerLCServerLoad.Values[i] = perServer
		res.LCThroughput.Values[i] = served
		res.BatchThroughput.Values[i] = batchWork
		res.Power.Values[i] = power
		res.TotalLC += served
		res.TotalBatch += batchWork
	}
	obsRuns.Inc()
	obsSteps.Add(uint64(n))
	obsQoSViolations.Add(uint64(res.QoSViolations))
	obsCapEvents.Add(uint64(res.CapEvents))
	return res, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Improvement summarises a policy run against a baseline run.
type Improvement struct {
	// LCPct and BatchPct are percentage throughput gains over the baseline.
	LCPct, BatchPct float64
}

// Compare computes throughput improvements of a run over a baseline run.
func Compare(baseline, run *Result) Improvement {
	imp := Improvement{}
	if baseline.TotalLC > 0 {
		imp.LCPct = 100 * (run.TotalLC - baseline.TotalLC) / baseline.TotalLC
	}
	if baseline.TotalBatch > 0 {
		imp.BatchPct = 100 * (run.TotalBatch - baseline.TotalBatch) / baseline.TotalBatch
	}
	return imp
}
