package experiments

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestFragSweepShort is the acceptance gate for the online-placement sweep
// (wired into `make frag-sweep-short`): the sweep must be bit-identical at
// workers 1 and 8, and the asynchrony-aware policy must strand less power
// than both baselines once the datacenter is substantially loaded.
func TestFragSweepShort(t *testing.T) {
	opt := fastOpt()
	opt.Workers = 1
	rows, err := FragSweep(workload.DC3, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*10 {
		t.Fatalf("got %d rows, want 30", len(rows))
	}

	opt.Workers = 8
	wide, err := FragSweep(workload.DC3, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide) != len(rows) {
		t.Fatalf("workers=8 returned %d rows, workers=1 returned %d", len(wide), len(rows))
	}
	for i := range rows {
		if rows[i] != wide[i] {
			t.Fatalf("row %d differs across worker counts:\n  w1: %+v\n  w8: %+v", i, rows[i], wide[i])
		}
	}

	at := func(policy string, load int) FragRow {
		for _, r := range rows {
			if r.Policy == policy && r.LoadPct == load {
				return r
			}
		}
		t.Fatalf("no row for %s at %d%%", policy, load)
		return FragRow{}
	}
	for _, load := range []int{70, 80, 90, 100} {
		async, random, bestfit := at("asynchrony", load), at("random", load), at("best-fit", load)
		if async.DCFragPct >= random.DCFragPct {
			t.Errorf("at %d%%: asynchrony frag %.3f%% not below random %.3f%%",
				load, async.DCFragPct, random.DCFragPct)
		}
		if async.DCFragPct >= bestfit.DCFragPct {
			t.Errorf("at %d%%: asynchrony frag %.3f%% not below best-fit %.3f%%",
				load, async.DCFragPct, bestfit.DCFragPct)
		}
	}

	// Sanity on the bookkeeping: every arrival is either admitted or
	// rejected, and arrived load is monotone within a policy.
	for _, policy := range FragPolicies {
		prev := -1.0
		for _, load := range []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100} {
			r := at(policy, load)
			if r.Admitted+r.Rejected == 0 {
				t.Fatalf("%s at %d%%: no arrivals recorded", policy, load)
			}
			if r.ArrivedW < prev {
				t.Fatalf("%s: arrived load not monotone at %d%%", policy, load)
			}
			prev = r.ArrivedW
		}
	}
}

// TestFragSweepValidation covers the error paths.
func TestFragSweepValidation(t *testing.T) {
	if _, err := FragSweep(workload.DC3, fastOpt(), []int{50, 50}); err == nil {
		t.Fatal("non-increasing thresholds must error")
	}
	if _, err := FragSweep(workload.DC3, fastOpt(), []int{80, 20}); err == nil {
		t.Fatal("decreasing thresholds must error")
	}
	if _, err := FragSweep("DC9", fastOpt(), nil); err == nil {
		t.Fatal("unknown DC must error")
	}
}

// TestFormatFragSweep pins the rendering contract: one block per policy in
// FragPolicies order, stable across calls.
func TestFormatFragSweep(t *testing.T) {
	rows, err := FragSweep(workload.DC3, fastOpt(), []int{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatFragSweep(workload.DC3, rows)
	last := -1
	for _, policy := range FragPolicies {
		idx := strings.Index(out, "policy "+policy+"\n")
		if idx < 0 {
			t.Fatalf("output missing policy %q:\n%s", policy, out)
		}
		if idx < last {
			t.Fatalf("policy %q rendered out of order", policy)
		}
		last = idx
	}
	if again := FormatFragSweep(workload.DC3, rows); again != out {
		t.Fatal("FormatFragSweep not stable across calls")
	}
}
