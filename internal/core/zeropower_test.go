package core

import (
	"slices"
	"testing"
	"time"
)

// A server that reports 0 W for a whole window has full coverage but no
// signal: every asynchrony score over it is undefined. These tests pin the
// quarantine rule that covers it on each path that scores a window — the
// instance is scored from its service's reference trace, like a dark one,
// and listed as quarantined — where each used to fail with ErrZeroPeak.

// zeroOut overwrites one instance's readings with 0 W over [from, to).
func zeroOut(t *testing.T, rt *Runtime, id string, from, to time.Time) {
	t.Helper()
	for at := from; at.Before(to); at = at.Add(time.Hour) {
		if err := rt.Ingest(id, at, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTickQuarantinesZeroPowerWindow(t *testing.T) {
	rt, instances, trainEnd := degradeFixture(t, RuntimeConfig{}, 500, 3, nil)
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	zeroOut(t, rt, "d", trainEnd, trainEnd.Add(dWeek))
	rep, err := rt.Tick(trainEnd.Add(dWeek), 0)
	if err != nil {
		t.Fatalf("tick with a 0 W window: %v", err)
	}
	if !slices.Equal(rep.Quarantined, []string{"d"}) || !slices.Equal(rt.Quarantined(), []string{"d"}) {
		t.Fatalf("Quarantined = %v / %v, want [d]", rep.Quarantined, rt.Quarantined())
	}
	if q, _ := rt.InstanceQuality("d"); q.Coverage != 1 {
		t.Fatalf("d's coverage = %v, want a full window", q.Coverage)
	}
	if rep.WorstNode == "" {
		t.Fatalf("tick scored no leaf: %+v", rep)
	}
}

func TestBootstrapQuarantinesZeroPowerHistory(t *testing.T) {
	rt, instances, trainEnd := degradeFixture(t, RuntimeConfig{}, 500, 2, nil)
	zeroOut(t, rt, "d", trainEnd.Add(-dWeek), trainEnd)
	if err := rt.Bootstrap(instances, trainEnd, 1); err != nil {
		t.Fatalf("bootstrap on a 0 W history: %v", err)
	}
	if got := rt.Quarantined(); !slices.Equal(got, []string{"d"}) {
		t.Fatalf("Quarantined = %v, want [d]", got)
	}
}

func TestAdmitQuarantinesZeroPowerArrival(t *testing.T) {
	rt, instances, trainEnd := degradeFixture(t, RuntimeConfig{}, 500, 2, nil)
	if err := rt.Bootstrap(instances, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	zeroOut(t, rt, "z", trainEnd.Add(-2*dWeek), trainEnd)
	leaf, err := rt.Admit(AdmitRequest{ID: "z", Service: "db", AsOf: trainEnd, TrainWeeks: 2})
	if err != nil {
		t.Fatalf("admitting a 0 W arrival: %v", err)
	}
	if leaf == "" {
		t.Fatal("empty leaf")
	}
	if got := rt.Quarantined(); !slices.Contains(got, "z") {
		t.Fatalf("Quarantined = %v, want z listed", got)
	}
}
