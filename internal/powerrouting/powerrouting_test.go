package powerrouting

import (
	"math"
	"testing"
	"time"

	"repro/internal/timeseries"
	"repro/internal/workload"
)

var t0 = time.Date(2016, 7, 25, 0, 0, 0, 0, time.UTC)

func mk(vals ...float64) timeseries.Series { return timeseries.New(t0, time.Minute, vals) }

func TestRouteValidation(t *testing.T) {
	good := []Server{{ID: "a", FeedA: 0, FeedB: 1, Trace: mk(1, 2)}}
	if _, err := Route(good, Config{Feeds: 1}); err != ErrNoFeeds {
		t.Fatalf("one feed: %v", err)
	}
	if _, err := Route(nil, Config{Feeds: 2}); err != ErrNoServers {
		t.Fatalf("no servers: %v", err)
	}
	bad := []Server{{ID: "a", FeedA: 0, FeedB: 0, Trace: mk(1)}}
	if _, err := Route(bad, Config{Feeds: 2}); err == nil {
		t.Fatal("same feed twice must error")
	}
	oob := []Server{{ID: "a", FeedA: 0, FeedB: 7, Trace: mk(1)}}
	if _, err := Route(oob, Config{Feeds: 2}); err == nil {
		t.Fatal("out-of-range feed must error")
	}
	ragged := []Server{
		{ID: "a", FeedA: 0, FeedB: 1, Trace: mk(1, 2)},
		{ID: "b", FeedA: 0, FeedB: 1, Trace: mk(1)},
	}
	if _, err := Route(ragged, Config{Feeds: 2}); err == nil {
		t.Fatal("ragged traces must error")
	}
}

func TestRouteBalancesAntiPhasePair(t *testing.T) {
	// Two anti-phase servers on the same feed statically; routing must put
	// them on different feeds (or balance epochs) so each feed's peak drops.
	servers := []Server{
		{ID: "day", FeedA: 0, FeedB: 1, Trace: mk(10, 10, 0, 0)},
		{ID: "night", FeedA: 0, FeedB: 1, Trace: mk(0, 0, 10, 10)},
	}
	static, err := StaticSplit(servers, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Static: both on feed 0, peak 10 there, 0 on feed 1.
	if static[0] != 10 || static[1] != 0 {
		t.Fatalf("static peaks: %v", static)
	}
	asg, err := Route(servers, Config{Feeds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Routed: one server per feed → each feed peaks at 10 but... the better
	// outcome for sum-of-peaks keeps both on one feed (sum 10) since they
	// never overlap. Either way the max feed peak must not exceed 10.
	for _, p := range asg.FeedPeaks {
		if p > 10+1e-9 {
			t.Fatalf("routed peak above 10: %v", asg.FeedPeaks)
		}
	}
	if asg.SumOfFeedPeaks() > static[0]+static[1]+1e-9 {
		t.Fatalf("routing must not be worse than static: %v vs %v", asg.SumOfFeedPeaks(), static)
	}
}

func TestRouteReducesSynchronousHotFeed(t *testing.T) {
	// Four synchronous servers all corded (A=0); routing should split them
	// across the feeds, halving the hot feed's peak.
	servers := make([]Server, 4)
	for i := range servers {
		servers[i] = Server{ID: string(rune('a' + i)), FeedA: 0, FeedB: 1, Trace: mk(5, 1, 5, 1)}
	}
	static, err := StaticSplit(servers, 2)
	if err != nil {
		t.Fatal(err)
	}
	if static[0] != 20 {
		t.Fatalf("static hot feed: %v", static)
	}
	asg, err := Route(servers, Config{Feeds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hot := math.Max(asg.FeedPeaks[0], asg.FeedPeaks[1])
	if hot > 10+1e-9 {
		t.Fatalf("routing should split synchronous load evenly: %v", asg.FeedPeaks)
	}
}

func TestRouteEpochGranularity(t *testing.T) {
	servers := []Server{{ID: "a", FeedA: 0, FeedB: 1, Trace: mk(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)}}
	asg, err := Route(servers, Config{Feeds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(asg.Choice) != 3 || stepsPerEpoch != 6 { // ceil(13/6)
		t.Fatalf("epochs = %d of %d steps", len(asg.Choice), stepsPerEpoch)
	}
	for _, c := range asg.Choice {
		if len(c) != 1 {
			t.Fatalf("choice shape: %v", asg.Choice)
		}
	}
}

func TestRouteDeterministic(t *testing.T) {
	servers := make([]Server, 6)
	for i := range servers {
		servers[i] = Server{ID: string(rune('a' + i)), FeedA: i % 2, FeedB: (i + 1) % 2, Trace: mk(float64(i), 5, float64(6-i), 2)}
	}
	a, err := Route(servers, Config{Feeds: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Route(servers, Config{Feeds: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.Choice {
		for s := range a.Choice[e] {
			if a.Choice[e][s] != b.Choice[e][s] {
				t.Fatal("same seed must reproduce the routing")
			}
		}
	}
}

// TestRoutingVsPlacement quantifies §6's comparison: power routing with
// degree-2 flexibility improves on a fragmented static wiring, but
// workload-aware *placement* achieves comparable smoothing without any
// infrastructure change — and routing on top of a bad layout cannot exceed
// the flexibility its cords allow.
func TestRoutingVsPlacement(t *testing.T) {
	spec := workload.GenSpec{
		Mix:   map[string]int{"frontend": 16, "dbA": 16},
		Start: t0, Step: time.Hour, Weeks: 1,
		PhaseJitterHours: 1.5, AmplitudeSigma: 0.2, NoiseSigma: 0.01, Seed: 9,
	}
	fleet, err := workload.Generate(spec, workload.StandardProfiles())
	if err != nil {
		t.Fatal(err)
	}
	// Fragmented wiring: frontends corded A=0/B=1, dbs corded A=1/B=0 — the
	// oblivious layout puts all frontends on feed 0 and all dbs on feed 1.
	servers := make([]Server, len(fleet.Instances))
	for i, inst := range fleet.Instances {
		a, b := 0, 1
		if inst.Service == "dbA" {
			a, b = 1, 0
		}
		servers[i] = Server{ID: inst.ID, FeedA: a, FeedB: b, Trace: inst.Trace}
	}
	static, err := StaticSplit(servers, 2)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := Route(servers, Config{Feeds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	staticSum := static[0] + static[1]
	if asg.SumOfFeedPeaks() >= staticSum {
		t.Fatalf("routing must improve on fragmented static wiring: %v vs %v",
			asg.SumOfFeedPeaks(), staticSum)
	}
	// Ideal mixed placement (half frontends + half dbs per feed, static):
	// compute its sum of feed peaks for reference.
	mixed := make([]Server, len(servers))
	copy(mixed, servers)
	for i := range mixed {
		mixed[i].FeedA = i % 2
	}
	mixedPeaks, err := StaticSplit(mixed, 2)
	if err != nil {
		t.Fatal(err)
	}
	mixedSum := mixedPeaks[0] + mixedPeaks[1]
	if mixedSum >= staticSum {
		t.Fatalf("mixed placement must beat fragmented wiring: %v vs %v", mixedSum, staticSum)
	}
	t.Logf("sum of feed peaks: fragmented %v, power-routed %v, placed %v",
		staticSum, asg.SumOfFeedPeaks(), mixedSum)
}

func TestStaticSplitValidation(t *testing.T) {
	if _, err := StaticSplit(nil, 2); err != ErrNoServers {
		t.Fatalf("no servers: %v", err)
	}
	if _, err := StaticSplit([]Server{{ID: "a", FeedA: 0, Trace: mk(1)}}, 0); err != ErrNoFeeds {
		t.Fatalf("no feeds: %v", err)
	}
	if _, err := StaticSplit([]Server{{ID: "a", FeedA: 5, Trace: mk(1)}}, 2); err == nil {
		t.Fatal("out-of-range feed must error")
	}
}
