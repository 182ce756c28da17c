package sim

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

func TestResultWriteCSV(t *testing.T) {
	res, err := Run(baseConfig(0, 50, fixedPolicy{Action{BatchFreq: 1}}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != res.Power.Len()+1 {
		t.Fatalf("rows = %d", len(records))
	}
	if records[0][0] != "timestamp" || records[0][4] != "power" {
		t.Fatalf("header: %v", records[0])
	}
	// Spot-check one row round-trips numerically.
	p, err := strconv.ParseFloat(records[1][4], 64)
	if err != nil || p != res.Power.Values[0] {
		t.Fatalf("power round trip: %v %v", p, err)
	}
	if !strings.HasPrefix(records[1][0], "2016-") {
		t.Fatalf("timestamp: %v", records[1][0])
	}
}

func TestResultWriteCSVEmpty(t *testing.T) {
	var r *Result
	if err := r.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("nil result must error")
	}
	if err := (&Result{}).WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("empty result must error")
	}
}
