// Package powerrouting implements the Power Routing baseline (Pelley et
// al., ASPLOS 2010 — the paper's [38]): dynamically re-assigning dual-corded
// servers between power feeds to balance load.
//
// Power Routing needs *infrastructure change*: every server is wired to two
// (or more) feeds, and a scheduler decides, per epoch, which feed carries
// each server. The paper's critique (§6) is that "dual-corded power supply
// only provides limited flexibility (degree of 2)" and that richer
// connectivity "can further lead to long service down time during the
// installation and setup process". This package implements the degree-2
// scheduler so that critique can be measured: how close does power routing
// get to workload-aware placement, using hardware the placement approach
// does not need?
package powerrouting

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/timeseries"
)

// Errors returned by the scheduler.
var (
	ErrNoFeeds   = errors.New("powerrouting: need at least two feeds")
	ErrNoServers = errors.New("powerrouting: no servers")
	ErrBadCords  = errors.New("powerrouting: server cords must reference distinct valid feeds")
)

// Server is one dual-corded machine: it may draw from either of its two
// feeds (never both), switching at epoch boundaries.
type Server struct {
	// ID names the server.
	ID string
	// FeedA and FeedB are the indices of its two candidate feeds.
	FeedA, FeedB int
	// Trace is the server's power trace.
	Trace timeseries.Series
}

// Assignment records, per epoch, which feed each server used.
type Assignment struct {
	// Choice[e][s] is 0 (FeedA) or 1 (FeedB) for server s during epoch e.
	Choice [][]uint8
	// FeedPeaks is each feed's peak draw under the assignment.
	FeedPeaks []float64
}

// SumOfFeedPeaks is the fragmentation indicator comparable to the
// placement sum-of-peaks.
func (a Assignment) SumOfFeedPeaks() float64 {
	var t float64
	for _, p := range a.FeedPeaks {
		t += p
	}
	return t
}

// Config tunes the scheduler.
type Config struct {
	// Feeds is the number of power feeds.
	Feeds int
	// Seed orders the improvement sweeps deterministically.
	Seed int64
}

const (
	// stepsPerEpoch is how many trace steps one routing epoch spans
	// (re-routing is not instantaneous; epochs model that).
	stepsPerEpoch = 6
	// passes is the number of local-improvement sweeps per epoch.
	passes = 3
)

// Route computes a per-epoch feed assignment minimizing the sum of weekly
// feed peaks with a local-search heuristic. Each epoch starts from the
// previous epoch's assignment (epoch 0 from the static FeedA wiring) and
// sweeps servers, accepting any switch that lowers the two affected feeds'
// combined weekly cost. Starting from the static wiring and accepting only
// improving moves keeps the result at least as good as not routing at all.
func Route(servers []Server, cfg Config) (*Assignment, error) {
	if cfg.Feeds < 2 {
		return nil, ErrNoFeeds
	}
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	n := servers[0].Trace.Len()
	for _, s := range servers {
		if s.FeedA == s.FeedB || s.FeedA < 0 || s.FeedB < 0 || s.FeedA >= cfg.Feeds || s.FeedB >= cfg.Feeds {
			return nil, fmt.Errorf("%w: server %q feeds (%d, %d)", ErrBadCords, s.ID, s.FeedA, s.FeedB)
		}
		if s.Trace.Len() != n {
			return nil, fmt.Errorf("powerrouting: server %q trace length %d != %d", s.ID, s.Trace.Len(), n)
		}
	}
	epochs := (n + stepsPerEpoch - 1) / stepsPerEpoch

	asg := &Assignment{
		Choice:    make([][]uint8, epochs),
		FeedPeaks: make([]float64, cfg.Feeds),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Sweep servers in descending mean-draw order (big movers first).
	order := make([]int, len(servers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return servers[order[a]].Trace.MeanValue() > servers[order[b]].Trace.MeanValue()
	})
	// choice carries across epochs; epoch 0 starts on the static wiring.
	choice := make([]uint8, len(servers))

	// feedLoad[f][t] accumulates within the current epoch; weekly[f] is the
	// running peak over completed epochs. Optimizing against the running
	// weekly peak (not just the epoch) prevents the pathology where epoch-
	// local balancing bounces high load across feeds so that *every* feed
	// ends up with a high weekly maximum.
	feedLoad := make([][]float64, cfg.Feeds)
	weekly := make([]float64, cfg.Feeds)
	for e := 0; e < epochs; e++ {
		lo := e * stepsPerEpoch
		hi := lo + stepsPerEpoch
		if hi > n {
			hi = n
		}
		w := hi - lo
		for f := range feedLoad {
			feedLoad[f] = make([]float64, w)
		}

		epochPeak := func(f int) float64 {
			max := 0.0
			for _, v := range feedLoad[f] {
				if v > max {
					max = v
				}
			}
			return max
		}
		// cost is the feed's weekly peak if the epoch ended now.
		cost := func(f int) float64 {
			return maxOf(weekly[f], epochPeak(f))
		}
		apply := func(s int, f int, sign float64) {
			tr := servers[s].Trace
			for t := 0; t < w; t++ {
				feedLoad[f][t] += sign * tr.Values[lo+t]
			}
		}

		// Load the carried-over assignment into this epoch's feeds.
		for s := range servers {
			f := servers[s].FeedA
			if choice[s] == 1 {
				f = servers[s].FeedB
			}
			apply(s, f, +1)
		}
		// Local improvement sweeps in randomized order.
		sweep := make([]int, len(servers))
		copy(sweep, order)
		for p := 0; p < passes; p++ {
			rng.Shuffle(len(sweep), func(i, j int) { sweep[i], sweep[j] = sweep[j], sweep[i] })
			improved := false
			for _, s := range sweep {
				a, b := servers[s].FeedA, servers[s].FeedB
				cur, alt := a, b
				if choice[s] == 1 {
					cur, alt = b, a
				}
				// Accept a switch when it lowers the two feeds' combined
				// weekly cost — the fragmentation metric — breaking ties
				// toward a lower pairwise max (load balance).
				beforeSum := cost(cur) + cost(alt)
				beforeMax := maxOf(cost(cur), cost(alt))
				apply(s, cur, -1)
				apply(s, alt, +1)
				afterSum := cost(cur) + cost(alt)
				afterMax := maxOf(cost(cur), cost(alt))
				better := afterSum < beforeSum-1e-9 ||
					(afterSum < beforeSum+1e-9 && afterMax < beforeMax-1e-9)
				if better {
					choice[s] ^= 1
					improved = true
				} else {
					apply(s, alt, -1)
					apply(s, cur, +1)
				}
			}
			if !improved {
				break
			}
		}
		asg.Choice[e] = append([]uint8(nil), choice...)
		for f := 0; f < cfg.Feeds; f++ {
			weekly[f] = cost(f)
			if weekly[f] > asg.FeedPeaks[f] {
				asg.FeedPeaks[f] = weekly[f]
			}
		}
	}
	return asg, nil
}

func maxOf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// StaticSplit is the no-routing baseline: every server stays on FeedA
// forever (single-corded wiring). Returns the per-feed peaks.
func StaticSplit(servers []Server, feeds int) ([]float64, error) {
	if feeds < 1 {
		return nil, ErrNoFeeds
	}
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	n := servers[0].Trace.Len()
	loads := make([][]float64, feeds)
	for f := range loads {
		loads[f] = make([]float64, n)
	}
	for _, s := range servers {
		if s.FeedA < 0 || s.FeedA >= feeds {
			return nil, fmt.Errorf("%w: server %q feed %d", ErrBadCords, s.ID, s.FeedA)
		}
		if s.Trace.Len() != n {
			return nil, fmt.Errorf("powerrouting: server %q trace length %d != %d", s.ID, s.Trace.Len(), n)
		}
		for t, v := range s.Trace.Values {
			loads[s.FeedA][t] += v
		}
	}
	peaks := make([]float64, feeds)
	for f := range loads {
		for _, v := range loads[f] {
			if v > peaks[f] {
				peaks[f] = v
			}
		}
	}
	return peaks, nil
}
