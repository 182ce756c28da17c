package loads

import (
	"regexp"
	"testing"

	"repro/bench/harness"
)

func loadSpec(t *testing.T) *harness.Spec {
	t.Helper()
	spec, err := harness.LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecNamesTheWorkloads keeps BENCHMARK.json and the code from drifting
// on workload names, and holds the file to the contract's limits.
func TestSpecNamesTheWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, spec.Workloads[i].Name, w.Name)
		}
		if n := len(spec.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", w.Name, n)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := make(map[string]bool)
	setup := false
	for _, m := range append(append([]harness.Metric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end must declare setup_s in s, lower is better")
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("spec outside the contract's limits: %d end-to-end, %d per-layer, %d s", len(spec.EndToEnd), len(spec.PerLayer), spec.RunSeconds)
	}
}

// TestSmokeEmitsExactlyTheDeclaredMetrics runs every workload once at smoke
// size, untraced and traced, and asserts that each declared metric is
// emitted exactly once with its unit and nothing undeclared is; that every
// output check holds; that the traced run's re-enactments all matched; and
// that the traced run — a second run on the same seed — lands on the identical
// placement.
func TestSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var first *harness.Run
			for _, opt := range []Options{
				{Seed: 7, Small: true},
				{Seed: 7, Small: true, Traced: true},
			} {
				res, spans, err := Run(w.Name, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range spec.Check(opt.Traced, res.Metrics) {
					t.Errorf("traced=%v: %s", opt.Traced, p)
				}
				if !res.Correct() {
					t.Errorf("traced=%v: failed %d, violations %v", opt.Traced, res.Failed, res.Violations)
				}
				if res.Attempted < 1 || res.Attempted != res.Succeeded+res.Rejected+res.Failed {
					t.Errorf("traced=%v: attempted %d ≠ succeeded %d + rejected %d + failed %d", opt.Traced, res.Attempted, res.Succeeded, res.Rejected, res.Failed)
				}
				if opt.Traced {
					if len(spans) == 0 {
						t.Error("traced run recorded no spans")
					}
					if res.Metrics["trace.mismatches"].Value != 0 {
						t.Errorf("re-enactments diverged: %v", res.Violations)
					}
					// Same seed, same operations: the same checkpoint placement.
					if res.Digest == "" || res.Digest != first.Digest {
						t.Errorf("traced run's placement digest %s differs from the untraced %s", res.Digest, first.Digest)
					}
					continue
				}
				for _, m := range spec.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("end-to-end metric %s = %v; it must never be 0", m.Name, res.Metrics[m.Name].Value)
					}
				}
				first = res
			}
		})
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, _, err := Run("nope", Options{Small: true}); err == nil {
		t.Error("an unknown workload must be an error")
	}
}
