package harness

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/detmap"
)

// Metric is one metric declaration of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json: the contract between this benchmark and whoever
// runs it. The command checks what it emits against it, and the tests do the
// same for every workload, so the file and the code cannot drift.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json from path.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: reading benchmark spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("harness: decoding %s: %w", path, err)
	}
	return &s, nil
}

// Declared returns the metric set a run must emit: the per-layer metrics
// for a traced run, the end-to-end ones otherwise.
func (s *Spec) Declared(traced bool) []Metric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// Check reports every way the emitted metrics differ from the declared set:
// a declared metric missing, one emitted under another unit, or an emitted
// metric nobody declared.
func (s *Spec) Check(traced bool, got map[string]Value) []string {
	var problems []string
	declared := make(map[string]bool)
	for _, m := range s.Declared(traced) {
		declared[m.Name] = true
		v, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("declared metric %q was not emitted", m.Name))
		case v.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("metric %q emitted in %q, declared in %q", m.Name, v.Unit, m.Unit))
		}
	}
	for _, name := range detmap.SortedKeys(got) {
		if !declared[name] {
			problems = append(problems, fmt.Sprintf("emitted metric %q is not declared", name))
		}
	}
	return problems
}
