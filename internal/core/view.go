package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// view is the runtime's one piece of derived state: everything it computes
// from (tree, stored telemetry) lives here and nowhere else, so there is one
// thing to replace when the telemetry window changes (setView) and one hook
// to run when the placement changes under it (viewChanged). Gauges,
// fragmentation reports, what-if snapshots and admissions all read the same
// ledger, so they cannot disagree.
type view struct {
	// traces is every resident's scoring trace over one telemetry window;
	// filled names the quarantined residents, whose entry is their service's
	// reference trace rather than their own telemetry.
	traces map[string]timeseries.Series
	filled map[string]bool
	// asOf and weeks key an admission window: averaged I-traces as of asOf
	// over weeks training weeks. weeks is 0 for a Bootstrap or Tick window,
	// which no admission asks for.
	asOf  time.Time
	weeks int
	// online places arrivals over (tree, traces). Its ledgers — a
	// powertree.Aggregator and a powertree.Usage — are the only per-node
	// aggregate traces and used-capacity vectors the runtime holds; they
	// recompute whole nodes, so they equal a from-scratch sweep bit for bit.
	online *placement.Online
	// plan is this view's what-if snapshot, captured on first use and
	// dropped by viewChanged.
	plan *plan.Snapshot
}

// newView builds a view of the live tree over one window's traces, which
// must cover every resident. This is the only full aggregation the runtime
// ever runs.
//
// smoothop:locked mu
func (r *Runtime) newView(traces map[string]timeseries.Series, quarantined []string, asOf time.Time, weeks int) (*view, error) {
	online, err := placement.NewOnline(r.tree, workload.SubPowerFn(traces), r.placementCfg())
	if err != nil {
		return nil, err
	}
	filled := make(map[string]bool, len(quarantined))
	for _, id := range quarantined {
		filled[id] = true
	}
	return &view{traces: traces, filled: filled, asOf: asOf, weeks: weeks, online: online}, nil
}

// setView is the one place the runtime's view is replaced.
//
// smoothop:locked mu
func (r *Runtime) setView(v *view) {
	r.view = v
	obsFragFullRefreshes.Inc()
	r.publishFragmentation()
}

// viewChanged is the one hook every placement mutation runs once the view's
// placer has absorbed it (Admit, Retire, or a Resync of remapped leaves): the
// what-if snapshot describes the old placement and is dropped, and the
// gauges are refreshed from the ledger's delta-updated snapshot.
//
// smoothop:locked mu
func (r *Runtime) viewChanged() {
	r.view.plan = nil
	obsFragDeltaRefreshes.Inc()
	r.publishFragmentation()
}

// publishFragmentation sets the per-level fragmentation gauges from the
// view's ledger. Best-effort: a tree with a zero-capacity level keeps the
// gauges at their last value rather than failing the operation.
//
// smoothop:locked mu
func (r *Runtime) publishFragmentation() {
	rows, err := metrics.FragmentationRatesFrom(r.tree, r.view.online.Aggregates())
	if err != nil {
		return
	}
	for _, row := range rows {
		if g := fragGauge(row.Level); g != nil {
			g.Set(row.RatePct)
		}
	}
}

// MultiFragmentationRates reports the tree's current stranded-headroom rows
// from the view's ledgers: the power rows per level, then one row per
// (level, capacity dimension) wherever the tree declares non-power
// capacities — what metrics.MultiFragmentationRates would compute from
// scratch over the view's traces and the runtime's demand ledger. On a
// power-only tree it returns exactly the power rows.
func (r *Runtime) MultiFragmentationRates() ([]metrics.FragmentationRow, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return nil, ErrNotPlaced
	}
	return metrics.MultiFragmentationRatesFrom(r.tree, r.view.online.Aggregates(), r.view.online.Used)
}

// PlanSnapshot returns the current placement as a plan.Snapshot — a private
// clone of the tree plus the view's traces — so POST /v1/plan queries
// evaluate against a copy without holding the runtime lock or blocking
// Tick/admissions. The snapshot is cached on the view: between mutations
// every concurrent planner shares one capture, and with it the lazily
// computed "before" report. Snapshots already handed out stay valid after a
// mutation — they own their state — they just describe the earlier
// placement.
func (r *Runtime) PlanSnapshot() (*plan.Snapshot, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return nil, ErrNotPlaced
	}
	if r.view.plan == nil {
		snap, err := plan.NewSnapshot(r.tree, r.view.traces, r.services, r.evalAsOf, r.store.Step())
		if err != nil {
			return nil, fmt.Errorf("core: plan snapshot: %w", err)
		}
		r.view.plan = snap
	}
	return r.view.plan, nil
}

// saveTree writes the placed tree as JSON (powertree.Save) under the
// runtime lock, so a concurrent admission, retirement or tick cannot mutate
// leaf.Instances mid-encode. Hand it a buffer, not the network.
func (r *Runtime) saveTree(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tree.Save(w)
}

// placementStatus is the GET /v1/status summary, read in one critical
// section.
type placementStatus struct {
	placed                                bool
	instances, leaves, ticks, quarantined int
	lastTick                              *DriftReport
}

func (r *Runtime) status() placementStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := placementStatus{
		placed:      r.placed,
		instances:   r.tree.InstanceCount(),
		leaves:      len(r.tree.Leaves()),
		ticks:       len(r.history),
		quarantined: len(r.quarantined),
	}
	if st.ticks > 0 {
		st.lastTick = r.history[st.ticks-1]
	}
	return st
}
