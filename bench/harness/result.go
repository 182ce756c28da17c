package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"runtime/debug"
)

// Value is one measured number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Meta records where a run was made, so two result files can be told apart
// before they are compared.
type Meta struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentMeta describes this process. The commit comes from the build's VCS
// stamp; a checkout that is not a repository reports "unknown".
func CurrentMeta() Meta {
	m := Meta{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// Run is one run of one workload: its inputs, its operation counts and every
// metric it measured.
type Run struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Size     string  `json:"size"`
	Traced   bool    `json:"traced"`
	Seconds  float64 `json:"seconds"`
	Meta     Meta    `json:"meta"`

	// Attempted = Succeeded + Rejected + Failed. Rejected counts correct
	// refusals (409 no_capacity); Failed counts transport errors, 5xx,
	// unexpected 4xx and violated output checks.
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Rejected  int `json:"rejected"`
	Failed    int `json:"failed"`
	// Samples is the number of timed observations behind the latency
	// metrics.
	Samples int `json:"samples"`

	// RefSetupUs and RefPhaseUs are the median times of the harness's
	// reference kernel during set-up and during the timed phase; timings are
	// reported at RefNominalUs (raw = reported × measured ÷ nominal).
	RefSetupUs   float64 `json:"ref_setup_us"`
	RefPhaseUs   float64 `json:"ref_phase_us"`
	RefNominalUs float64 `json:"ref_nominal_us"`

	// Violations lists the output checks that did not hold; empty on a
	// correct run.
	Violations []string `json:"violations,omitempty"`
	// Digest is the FNV-1a hash of the checkpoint placement (sorted
	// leaf→ids), for same-seed determinism checks.
	Digest string `json:"digest"`

	Metrics map[string]Value `json:"metrics"`
}

// Correct reports whether every output check held and no operation failed.
func (r *Run) Correct() bool { return len(r.Violations) == 0 && r.Failed == 0 }

// ContractLine is the one-line JSON object the benchmark contract wants as
// the last line of standard output.
func (r *Run) ContractLine() (string, error) {
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed + len(r.Violations), r.Metrics}
	raw, err := json.Marshal(line)
	if err != nil {
		return "", fmt.Errorf("harness: encoding result line: %w", err)
	}
	return string(raw), nil
}

// File is a result file: the runs appended to it, in order.
type File struct {
	Runs []Run `json:"runs"`
}

// LoadFile reads a result file; a missing file is an empty one.
func LoadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &File{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("harness: reading results: %w", err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("harness: decoding %s: %w", path, err)
	}
	return &f, nil
}

// Append adds runs to the result file at path, creating it if needed.
func Append(path string, runs ...Run) error {
	f, err := LoadFile(path)
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("harness: writing results: %w", err)
	}
	return nil
}
