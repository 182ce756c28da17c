package sim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// randomPolicy takes arbitrary (bounded) actions each step — an adversarial
// policy for checking the simulator's physical invariants.
type randomPolicy struct{ rng *rand.Rand }

func (p *randomPolicy) Decide(State) Action {
	return Action{
		ConvLC:         p.rng.Intn(40) - 5, // may exceed pools / go negative
		ThrottleConvLC: p.rng.Intn(20) - 5,
		BatchFreq:      p.rng.Float64()*2 + 0.1,
	}
}
func (*randomPolicy) Name() string { return "random" }

// TestSimInvariantsUnderRandomPolicies drives the simulator with adversarial
// policies and asserts its physical invariants:
//   - served LC ≤ offered LC, and per-server load ∈ [0, 1];
//   - batch work ≥ 0 and bounded by fleet + helpers (work cap respected);
//   - power stays positive and, after capping, within budget whenever the
//     fleet's idle floor allows;
//   - throughput totals equal the series sums.
func TestSimInvariantsUnderRandomPolicies(t *testing.T) {
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(100) + 20
		load := timeseries.Zeros(base, 30*time.Minute, n)
		nLC := rng.Intn(80) + 20
		for i := range load.Values {
			load.Values[i] = rng.Float64() * float64(nLC) * 1.2
		}
		cfg := Config{
			LCLoad: load,
			NLC:    nLC, NBatch: rng.Intn(60), NConv: rng.Intn(20), NThrottleConv: rng.Intn(10),
			LCServer:    ServerModel{Idle: 90, Peak: 300},
			BatchServer: ServerModel{Idle: 140, Peak: 310},
			Freq:        DefaultDVFS,
			Budget:      float64(nLC)*300 + 60*310*1.3,
			Lconv:       0.85, QoSKnee: 0.9,
			BatchWorkCap: 1 + rng.Float64(),
			Policy:       &randomPolicy{rng: rand.New(rand.NewSource(int64(trial * 7)))},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var lcSum, batchSum float64
		maxBatch := float64(cfg.NBatch)*DefaultDVFS.MaxFreq + float64(cfg.NConv+cfg.NThrottleConv)
		for i := 0; i < n; i++ {
			if res.LCThroughput.Values[i] > load.Values[i]+1e-9 {
				t.Fatalf("trial %d: served > offered at %d", trial, i)
			}
			if v := res.PerLCServerLoad.Values[i]; v < 0 || v > 1+1e-9 {
				t.Fatalf("trial %d: per-server load %v", trial, v)
			}
			if v := res.BatchThroughput.Values[i]; v < -1e-9 || v > maxBatch+1e-9 {
				t.Fatalf("trial %d: batch work %v outside [0, %v]", trial, v, maxBatch)
			}
			if res.Power.Values[i] <= 0 {
				t.Fatalf("trial %d: non-positive power", trial)
			}
			lcSum += res.LCThroughput.Values[i]
			batchSum += res.BatchThroughput.Values[i]
		}
		if diff := lcSum - res.TotalLC; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: LC total mismatch", trial)
		}
		if diff := batchSum - res.TotalBatch; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("trial %d: batch total mismatch", trial)
		}
		if res.OverBudgetSteps != 0 {
			t.Fatalf("trial %d: %d steps over budget despite capping", trial, res.OverBudgetSteps)
		}
		if droppedLC(cfg, res) < -1e-9 {
			t.Fatalf("trial %d: negative dropped load", trial)
		}
	}
}

// TestSimWorkCapRespected checks the batch queue bound directly.
func TestSimWorkCapRespected(t *testing.T) {
	base := time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)
	cfg := Config{
		LCLoad: timeseries.Constant(base, time.Hour, 48, 10),
		NLC:    100, NBatch: 20, NConv: 30,
		LCServer:    ServerModel{Idle: 90, Peak: 300},
		BatchServer: ServerModel{Idle: 140, Peak: 310},
		Freq:        DefaultDVFS,
		Budget:      1e9,
		Lconv:       0.85, QoSKnee: 0.9,
		BatchWorkCap: 1.2,
		Policy:       fixedPolicy{Action{ConvLC: 0, BatchFreq: 1}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 30 helpers offered but queue allows only 0.2×20 = 4 extra.
	if got := res.BatchThroughput.Values[0]; got != 24 {
		t.Fatalf("capped batch work = %v, want 24", got)
	}
}
