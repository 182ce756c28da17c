package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func fastOpt() experiments.Options {
	return experiments.Options{Scale: 1, Step: 4 * time.Hour, Seed: 1, Workers: 1}
}

// TestRunFailingConfigIsNamedError injects a datacenter the workload package
// cannot instantiate and asserts run reports a named, non-nil error instead
// of silently skipping the DC or emitting partial output.
func TestRunFailingConfigIsNamedError(t *testing.T) {
	err := run(fastOpt(), []workload.DCName{"DC9"}, 10, 0, false, false, false, false, false, "")
	if err == nil {
		t.Fatal("run with an unknown datacenter returned nil error")
	}
	if !strings.Contains(err.Error(), "DC9") {
		t.Fatalf("error does not name the failing datacenter: %v", err)
	}
}

// TestRunExtensionsHonourDCFlag asks for the extension studies on a
// datacenter the workload package cannot instantiate: the UPS study must
// run on the selected subset, so run fails naming it.
func TestRunExtensionsHonourDCFlag(t *testing.T) {
	err := run(fastOpt(), []workload.DCName{"DC9"}, 0, 0, false, false, true, false, false, "")
	if err == nil || !strings.Contains(err.Error(), "DC9") {
		t.Fatalf("extensions with -dc DC9: err = %v", err)
	}
}

// TestRunFig9RequiresDC3 pins the guard that replaced the old positional
// runs[2] indexing: asking for fig 9 without DC3 in the subset must fail
// up front with an error naming the missing datacenter.
func TestRunFig9RequiresDC3(t *testing.T) {
	err := run(fastOpt(), []workload.DCName{workload.DC1}, 9, 0, false, false, false, false, false, "")
	if err == nil {
		t.Fatal("fig 9 without DC3 returned nil error")
	}
	if !strings.Contains(err.Error(), "DC3") {
		t.Fatalf("error does not name DC3: %v", err)
	}
}

func TestParseDCs(t *testing.T) {
	dcs, err := parseDCs("")
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != len(workload.AllDCs) {
		t.Fatalf("empty flag selected %v, want all of %v", dcs, workload.AllDCs)
	}
	dcs, err = parseDCs("DC2, DC3")
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 2 || dcs[0] != workload.DC2 || dcs[1] != workload.DC3 {
		t.Fatalf("parseDCs(\"DC2, DC3\") = %v", dcs)
	}
	if _, err := parseDCs("DC1,DC9"); err == nil || !strings.Contains(err.Error(), "DC9") {
		t.Fatalf("parseDCs with unknown DC: err = %v", err)
	}
	if _, err := parseDCs("DC1,DC1"); err == nil || !strings.Contains(err.Error(), "DC1") {
		t.Fatalf("parseDCs with a repeated DC: err = %v", err)
	}
	if _, err := parseDCs(" , "); err == nil {
		t.Fatal("parseDCs with only separators returned nil error")
	}
}
