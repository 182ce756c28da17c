// Package loads holds the benchmark's four workloads. Each stands up a real
// core.Runtime over tracestore + workload.BuildDC, serves the /v1 API from
// an in-process httptest.Server on loopback and drives it closed-loop from
// the same process. Nothing here reaches into the program under test: every
// layer is exercised through its exported functions and observed through the
// obs.Default() registry.
package loads

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
	"repro/internal/timeseries"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

const (
	step       = 30 * time.Minute
	day        = 24 * time.Hour
	week       = 7 * day
	trainWeeks = 2
	// scoreFloor and maxSwaps are smoothopd's defaults, so a tick does what
	// the daemon's tick does.
	scoreFloor = 1.25
	maxSwaps   = 24
)

// fleetSpec says which synthetic datacenter a workload runs on.
type fleetSpec struct {
	dc    workload.DCName
	scale int
	// weeks of telemetry to generate: trainWeeks of history plus the days
	// the workload replays.
	weeks int
	// caps, when set, declares the same non-power capacities on every leaf.
	caps powertree.ResourceVector
	// policy is the runtime's placement policy.
	policy placement.PolicyConfig
}

// env is one stood-up system: the generated inputs, the runtime built on
// them and the loopback server in front of it.
type env struct {
	spec     fleetSpec
	fleet    *workload.Fleet
	empty    *powertree.Node // the unplaced tree; runtimes get clones
	start    time.Time
	trainEnd time.Time
	// evalTraces are the fleet's averaged I-traces over the training weeks:
	// the fixed yardstick Σ leaf peaks and breaker checks are evaluated on,
	// independent of whichever view the runtime currently holds.
	evalTraces map[string]timeseries.Series
	// heapBase is HeapAlloc after generating the inputs, so the runtime's
	// own footprint can be told from the harness's.
	heapBase uint64

	store   *tracestore.Store
	rt      *core.Runtime
	planner *plan.Service
	srv     *httptest.Server
	client  *http.Client
}

// newInputs generates the fleet and the empty tree from the seed. This is
// the only place the seed reaches the program's inputs from.
func newInputs(spec fleetSpec, seed int64) (*env, error) {
	cfg, err := workload.StandardDCConfig(spec.dc, spec.scale)
	if err != nil {
		return nil, fmt.Errorf("loads: datacenter config: %w", err)
	}
	cfg.Gen.Step = step
	cfg.Gen.Weeks = spec.weeks
	cfg.Gen.Seed = seed
	cfg.Topology.LeafCapacities = spec.caps
	fleet, tree, err := workload.BuildDC(cfg)
	if err != nil {
		return nil, fmt.Errorf("loads: building %s×%d: %w", spec.dc, spec.scale, err)
	}
	avg, err := fleet.AveragedITraces(trainWeeks)
	if err != nil {
		return nil, fmt.Errorf("loads: averaged traces: %w", err)
	}
	start := fleet.Instances[0].Trace.Start
	e := &env{
		spec: spec, fleet: fleet, empty: tree,
		start: start, trainEnd: start.Add(trainWeeks * week),
		evalTraces: avg,
	}
	e.heapBase = heapAlloc()
	return e, nil
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// newRuntime (re)creates the store, the runtime over a fresh clone of the
// empty tree, and the server in front of it. Any previous server is closed.
func (e *env) newRuntime(seed int64) error {
	e.close()
	e.store = tracestore.New(tracestore.Config{
		Step:           step,
		Retention:      time.Duration(e.spec.weeks+1) * week,
		RejectImpulses: true,
	})
	rt, err := core.NewRuntime(
		core.New(core.Config{TopServices: 8, Seed: seed}),
		e.store, e.empty.Clone(),
		core.RuntimeConfig{ScoreFloor: scoreFloor, MaxSwapsPerTick: maxSwaps, Placement: e.spec.policy},
	)
	if err != nil {
		return fmt.Errorf("loads: runtime: %w", err)
	}
	e.rt = rt
	// The handler gets an explicit planner with default limits so that a
	// traced run can call the very same service without the HTTP hop.
	e.planner, err = plan.NewService(rt.PlanSnapshot, plan.Config{})
	if err != nil {
		return fmt.Errorf("loads: planner: %w", err)
	}
	e.srv = httptest.NewServer(core.HTTPHandlerWithPlanner(rt, e.planner, time.Now, obs.Default()))
	conns := runtime.GOMAXPROCS(0)
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}
	return nil
}

// close stops the server and drops its idle connections.
func (e *env) close() {
	if e.srv != nil {
		e.client.CloseIdleConnections()
		e.srv.Close()
		e.srv = nil
	}
}

// ingest streams the fleet's readings with timestamps in [from, to) through
// Runtime.Ingest and returns how many there were.
func (e *env) ingest(from, to time.Time) (int, error) {
	n := 0
	for _, inst := range e.fleet.Instances {
		tr := inst.Trace
		lo := int(from.Sub(tr.Start) / tr.Step)
		hi := int(to.Sub(tr.Start) / tr.Step)
		if lo < 0 {
			lo = 0
		}
		if hi > tr.Len() {
			hi = tr.Len()
		}
		for i := lo; i < hi; i++ {
			if err := e.rt.Ingest(inst.ID, tr.TimeAt(i), tr.Values[i]); err != nil {
				return n, fmt.Errorf("loads: ingesting %s: %w", inst.ID, err)
			}
			n++
		}
	}
	return n, nil
}

// dayEnd is the end of the d-th replayed day after the training weeks
// (d = 0 is the first day).
func (e *env) dayEnd(d int) time.Time { return e.trainEnd.Add(time.Duration(d+1) * day) }

// daysAvailable is how many days of telemetry follow the training weeks.
func (e *env) daysAvailable() int { return (e.spec.weeks - trainWeeks) * 7 }

// instances converts fleet members to placement instances, attaching any
// declared demands.
func instances(members []*workload.Instance, demands map[string]powertree.ResourceVector) []placement.Instance {
	out := make([]placement.Instance, len(members))
	for i, m := range members {
		out[i] = placement.Instance{ID: m.ID, Service: m.Service, Demands: demands[m.ID]}
	}
	return out
}

// shuffled returns the fleet's members in a seeded random order.
func shuffled(fleet *workload.Fleet, rng *rand.Rand) []*workload.Instance {
	out := append([]*workload.Instance(nil), fleet.Instances...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
}

// call performs one request against the loopback server and reads the whole
// response, so the connection is reused.
func (e *env) call(method, path string, body any) (reply, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return reply{}, fmt.Errorf("loads: encoding %s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, e.srv.URL+path, rd)
	if err != nil {
		return reply{}, fmt.Errorf("loads: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("loads: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("loads: reading %s %s: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, body: raw}, nil
}

// errorCode extracts the API's error envelope code, "" if there is none.
func (r reply) errorCode() string {
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal(r.body, &env) != nil {
		return ""
	}
	return env.Error.Code
}
