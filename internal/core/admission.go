package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/placement"
	"repro/internal/powertree"
)

// Online admission: the runtime's arrival-stream path. Bootstrap places a
// whole fleet snapshot at once; deployments then churn one instance at a
// time. AdmitInstance scores an arriving instance from its stored telemetry
// (falling back to its service's reference trace below the quarantine
// floor, exactly like Bootstrap) and hands it to the view's placement.Online
// over the live tree. RetireInstance releases a departing instance. Both are
// safe for concurrent use — the HTTP layer calls them from request
// goroutines — and both end in viewChanged, which refreshes the per-level
// fragmentation gauges.

// AdmitRequest describes one arriving instance for Admit — the redesigned
// admission entry point (AdmitInstance remains as a positional shorthand).
//
// smoothop:immutable
type AdmitRequest struct {
	// ID and Service identify the instance; both are required.
	ID, Service string
	// AsOf is the telemetry time the scoring trace is read at; zero means
	// the latest Bootstrap/Tick time (the stored telemetry's clock, not the
	// wall clock).
	AsOf time.Time
	// TrainWeeks is the averaging window; < 1 means the framework default,
	// and a window longer than the store's retention is ErrTrainWeeks.
	TrainWeeks int
	// Demands optionally declares the instance's non-power resource demand
	// vector; it is validated, enforced against every capacity dimension the
	// tree declares, and remembered in the runtime's ledger until the
	// instance retires.
	Demands powertree.ResourceVector
}

// placementCfg assembles the placer options for views and tick-time
// remapping: the configured policy with the runtime's own demand
// ledger overlaid on the config's resolver (ledger wins). With no ledger
// entries and no configured resolver the config passes through untouched,
// keeping every multi-resource path inert.
//
// smoothop:locked mu
func (r *Runtime) placementCfg() placement.PolicyConfig {
	cfg := r.placeCfg
	if len(r.demands) == 0 && cfg.Demands == nil {
		return cfg
	}
	ledger := r.demands // allocated once at NewRuntime, mutated under mu
	fallback := cfg.Demands
	cfg.Demands = func(id string) (powertree.ResourceVector, bool) {
		if d, ok := ledger[id]; ok {
			return d, true
		}
		if fallback != nil {
			return fallback(id)
		}
		return nil, false
	}
	return cfg
}

// AdmitInstance places one arriving instance onto the live tree and returns
// the hosting leaf's name — shorthand for Admit with a positional request
// and no demand vector.
func (r *Runtime) AdmitInstance(id, service string, asOf time.Time, trainWeeks int) (string, error) {
	return r.Admit(AdmitRequest{ID: id, Service: service, AsOf: asOf, TrainWeeks: trainWeeks})
}

// Admit places one arriving instance onto the live tree and returns the
// hosting leaf's name. The scoring trace is the instance's averaged I-trace
// as of req.AsOf over req.TrainWeeks weeks; an instance below the
// quarantine floor is admitted on its service's reference trace instead of
// failing. Admission never displaces residents: if no leaf can take the
// instance without a breaker violation — or, when demands and capacities
// are declared, without overflowing a capacity dimension — the error wraps
// placement.ErrNoCapacity and the tree is unchanged.
func (r *Runtime) Admit(req AdmitRequest) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return "", ErrNotPlaced
	}
	id, service := req.ID, req.Service
	if id == "" || service == "" {
		return "", errors.New("core: admission needs an instance id and a service")
	}
	if err := req.Demands.Validate(); err != nil {
		return "", fmt.Errorf("core: admission demands for %q: %w", id, err)
	}
	asOf := req.AsOf
	if asOf.IsZero() {
		asOf = r.evalAsOf
	}
	trainWeeks, err := r.trainingWeeks(req.TrainWeeks)
	if err != nil {
		return "", err
	}
	if err := r.ensureView(asOf, trainWeeks); err != nil {
		return "", err
	}
	v := r.view
	if _, ok := v.online.Leaf(id); ok {
		return "", fmt.Errorf("%w: %q", placement.ErrAlreadyAdmitted, id)
	}
	// The arrival is read and graded like every resident. A quarantined
	// arrival is scored from the view's healthy residents in tree order,
	// never from instances that have since retired.
	r.services[id] = service
	traces, quality, quarantined, err := r.readTraces("admission", []string{id}, r.trainingRead(asOf, trainWeeks))
	if err == nil && len(quarantined) > 0 {
		err = r.fillReferences("admission", quarantined, traces, r.tree.AllInstances(), v.traces, v.filled)
	}
	var leaf *powertree.Node
	if err == nil {
		r.quality[id] = quality[id]
		v.traces[id] = traces[id]
		leaf, err = v.online.Admit(placement.Instance{ID: id, Service: service, Demands: req.Demands})
	}
	if err != nil {
		delete(v.traces, id)
		delete(r.quality, id)
		delete(r.services, id)
		if errors.Is(err, placement.ErrNoCapacity) {
			obsRuntimeAdmissionRejects.Inc()
		}
		return "", err
	}
	if len(req.Demands) > 0 {
		r.demands[id] = req.Demands.Clone()
	}
	if len(quarantined) > 0 {
		v.filled[id] = true
		r.quarantined = append(r.quarantined, id)
		obsQuarantined.Set(float64(len(r.quarantined)))
	}
	obsRuntimeAdmissions.Inc()
	r.viewChanged()
	return leaf.Name, nil
}

// RetireInstance removes a previously placed instance from the live tree
// and returns the leaf that hosted it. Unknown instances wrap
// placement.ErrUnknownInstance.
func (r *Runtime) RetireInstance(id string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.placed {
		return "", ErrNotPlaced
	}
	leaf, err := r.view.online.Retire(id)
	if err != nil {
		return "", err
	}
	delete(r.view.traces, id)
	delete(r.view.filled, id)
	delete(r.demands, id)
	delete(r.services, id)
	delete(r.quality, id)
	if i := slices.Index(r.quarantined, id); i >= 0 {
		// A fresh slice: the latest DriftReport.Quarantined shares the old one.
		r.quarantined = slices.Concat(r.quarantined[:i], r.quarantined[i+1:])
		obsQuarantined.Set(float64(len(r.quarantined)))
	}
	obsRuntimeRetirements.Inc()
	r.viewChanged()
	return leaf.Name, nil
}

// ensureView makes the runtime's view an admission view for the window
// (asOf, trainWeeks): averaged I-traces for every current resident,
// quarantined residents filled from reference traces. A view already keyed
// at that window is reused as is; anything else — the Bootstrap/Tick view, a
// different window — is rebuilt from the store.
//
// smoothop:locked mu
func (r *Runtime) ensureView(asOf time.Time, trainWeeks int) error {
	if r.view.weeks == trainWeeks && r.view.asOf.Equal(asOf) {
		return nil
	}
	traces, _, quarantined, err := r.scoringTraces("admission view", r.tree.AllInstances(), r.trainingRead(asOf, trainWeeks))
	if err != nil {
		return err
	}
	v, err := r.newView(traces, quarantined, asOf, trainWeeks)
	if err != nil {
		return fmt.Errorf("core: admission view: %w", err)
	}
	r.setView(v)
	return nil
}
