package loads

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/placement"
	"repro/internal/plan"
	"repro/internal/powertree"
	"repro/internal/workload"
)

// pick chooses between the full and the smoke value of a sizing constant.
func (r *run) pick(full, smoke int) int {
	if r.opt.Small {
		return smoke
	}
	return full
}

// pool is a set of instances with O(1) seeded draws, so choosing the next
// arrival or victim costs the harness nothing that would show in a rate.
type pool struct {
	items []*workload.Instance
}

func newPool(items []*workload.Instance) *pool {
	return &pool{items: append([]*workload.Instance(nil), items...)}
}

func (p *pool) add(m *workload.Instance) { p.items = append(p.items, m) }

func (p *pool) draw(rng *rand.Rand) *workload.Instance {
	i := rng.Intn(len(p.items))
	m := p.items[i]
	last := len(p.items) - 1
	p.items[i] = p.items[last]
	p.items = p.items[:last]
	return m
}

func (p *pool) len() int { return len(p.items) }

// resetLedger forgets what an earlier set-up repetition placed.
func (r *run) resetLedger() {
	r.residents = make(map[string]bool)
	r.demands = make(map[string]powertree.ResourceVector)
	r.offered, r.placed = 0, 0
}

// serve is the serving workloads' set-up: generate the inputs, ingest the
// training weeks for the whole fleet, bootstrap the given share, ingest the
// first day and tick once, then warm the admission view with one admit and
// retire so the timed phase starts from the state a running daemon is in.
// It returns the members bootstrapped and those held out, in seeded order.
func (r *run) serve(spec fleetSpec, bootstrapPct int, demand func(*workload.Instance) powertree.ResourceVector) (resident, free *pool, err error) {
	build := func() (*env, error) {
		r.resetLedger()
		resident, free = nil, nil // drop the previous repetition's fleet before measuring the heap base
		rng := rand.New(rand.NewSource(r.opt.Seed))
		r.pace()
		e, err := newInputs(spec, r.opt.Seed)
		if err != nil {
			return nil, err
		}
		r.pace()
		if err := e.newRuntime(r.opt.Seed); err != nil {
			return nil, err
		}
		order := shuffled(e.fleet, rng)
		nBoot := len(order) * bootstrapPct / 100
		if nBoot >= len(order) {
			nBoot = len(order) - 1
		}
		if _, err := e.ingest(e.start, e.trainEnd); err != nil {
			return nil, err
		}
		r.env = e
		r.pace()
		if _, err := r.bootstrap(order[:nBoot], false); err != nil {
			return nil, err
		}
		r.pace()
		if _, err := e.ingest(e.trainEnd, e.dayEnd(0)); err != nil {
			return nil, err
		}
		if _, err := e.rt.Tick(e.dayEnd(0), week); err != nil {
			return nil, fmt.Errorf("set-up tick: %w", err)
		}
		r.lastAsOf = e.dayEnd(0)
		r.pace()
		warm := order[nBoot]
		if _, err := e.rt.AdmitInstance(warm.ID, warm.Service, e.dayEnd(0), trainWeeks); err != nil {
			return nil, fmt.Errorf("set-up warm admission: %w", err)
		}
		if _, err := e.rt.RetireInstance(warm.ID); err != nil {
			return nil, fmt.Errorf("set-up warm retirement: %w", err)
		}
		resident, free = newPool(order[:nBoot]), newPool(order[nBoot:])
		if demand != nil {
			for _, m := range free.items {
				if d := demand(m); len(d) > 0 {
					r.demands[m.ID] = d
				}
			}
		}
		return e, nil
	}
	if err := r.setup(build); err != nil {
		return nil, nil, err
	}
	// Attach the shadow to the system that is kept; demands of held-out
	// instances enter the shadow ledger as they are admitted.
	if err := r.tr.attach(r.env, r.env.dayEnd(0), nil); err != nil {
		return nil, nil, err
	}
	return resident, free, nil
}

// ---- replay_10k --------------------------------------------------------------

// runReplay is the cold path an operator waits on at start-up and at every
// drift check: stream two weeks of readings through Runtime.Ingest,
// Bootstrap, then replay one week a day at a time (ingest the day, Tick over
// a one-week window, read the fragmentation report). A pass is one such
// week; passes repeat on a fresh runtime until the seconds are used up.
func runReplay(r *run) error {
	spec := fleetSpec{dc: workload.DC2, scale: r.pick(100, 2), weeks: trainWeeks + 1}
	days := r.pick(7, 3)
	err := r.setup(func() (*env, error) {
		r.pace()
		defer r.pace()
		return newInputs(spec, r.opt.Seed)
	})
	if err != nil {
		return err
	}
	e := r.env
	r.headline = "tick"
	m := &meter{}
	r.meters = []*meter{m}
	r.startClock()
	m.begin(time.Now())
	for pass := 0; pass == 0 || !r.expired(); pass++ {
		r.resetLedger()
		if err := e.newRuntime(r.opt.Seed); err != nil {
			return err
		}
		root := r.tr.beginOp("ingest_history", layerStore)
		r.tr.restart(root)
		t := time.Now()
		n, err := e.ingest(e.start, e.trainEnd)
		took := time.Since(t)
		r.tr.endOp(root)
		if err != nil {
			return err
		}
		r.count(ok, "")
		r.observe("ingest_history", took)
		r.readings = append(r.readings, float64(n)/took.Seconds()/1e6)
		boot, err := r.bootstrap(e.fleet.Instances, true)
		if err != nil {
			return err
		}
		r.count(ok, "")
		r.observe("bootstrap", boot)
		d := 0
		for ; d < days && (pass == 0 || !r.expired()); d++ {
			r.ingestDay(d)
			r.tick(d)
			for k := 0; k < 3; k++ {
				r.fragGet() // the first read after a tick is cold; the median is not
			}
			m.add(1, time.Now())
		}
		if d == days {
			m.endRound(time.Now())
		}
		if pass == 0 {
			r.takeCheckpoint()
		}
	}
	r.stopClock()
	return nil
}

// ---- admit_churn_10k ---------------------------------------------------------

// churn is the shared shape of the two admission workloads: offer every
// held-out instance once (the fill), then churn — offer a free instance,
// retire a resident — reading the fragmentation report every fragEvery
// operations and the tree every treeEvery, and, when tickEvery > 0, ingesting
// a day and ticking every tickEvery pairs so the admission view is re-keyed
// as in the running daemon. A round is one tick period (or checkPairs pairs
// without ticks). The checkpoint falls after the fill and checkPairs pairs.
func (r *run) churn(resident, free *pool, checkPairs, tickEvery, fragEvery, treeEvery int) {
	e := r.env
	r.headline = "admit"
	m := &meter{}
	r.meters = []*meter{m}
	r.startClock()

	ops := 0
	after := func() {
		ops++
		if ops%fragEvery == 0 {
			r.fragGet()
			m.add(1, time.Now())
		}
		if ops%treeEvery == 0 {
			r.treeGet()
			m.add(1, time.Now())
		}
	}
	// Fill: every held-out instance is offered once, in seeded order.
	fill := append([]*workload.Instance(nil), free.items...)
	var refusedFill []*workload.Instance
	free.items = nil
	for _, inst := range fill {
		if r.admit(inst) {
			resident.add(inst)
		} else {
			refusedFill = append(refusedFill, inst)
		}
		after()
	}
	for _, inst := range refusedFill {
		free.add(inst)
	}

	// Churn. Arrivals come from the free pool; a retired instance returns to
	// it, so the fleet's telemetry covers everything that is ever offered.
	m.begin(time.Now())
	nextDay := 1
	round := tickEvery
	if round <= 0 {
		round = checkPairs
	}
	for pair := 1; ; pair++ {
		if free.len() > 0 {
			inst := free.draw(r.rng)
			if r.admit(inst) {
				resident.add(inst)
			} else {
				free.add(inst)
			}
			m.add(1, time.Now())
			after()
		}
		victim := resident.draw(r.rng)
		r.retire(victim.ID)
		free.add(victim)
		m.add(1, time.Now())
		after()

		if pair == checkPairs {
			r.takeCheckpoint()
		}
		if pair%round == 0 {
			if tickEvery > 0 && nextDay < e.daysAvailable() {
				r.ingestDay(nextDay)
				r.tick(nextDay)
				nextDay++
				m.add(2, time.Now())
			}
			m.endRound(time.Now())
		}
		if pair >= checkPairs && r.expired() {
			break
		}
	}
	r.stopClock()
}

// runAdmitChurn is the scheduler-facing write path: 90 % of the fleet is
// bootstrapped in set-up, one client fills in the held-out tenth over HTTP
// and then churns.
func runAdmitChurn(r *run) error {
	spec := fleetSpec{dc: workload.DC2, scale: r.pick(100, 2), weeks: trainWeeks + 2}
	resident, free, err := r.serve(spec, 90, nil)
	if err != nil {
		return err
	}
	r.churn(resident, free, r.pick(250, 10), r.pick(250, 10), r.pick(50, 5), r.pick(500, 20))
	return nil
}

// ---- admit_multires_2k -------------------------------------------------------

// fgdMix is the request-size mix of the FGD arrival stream (GPUs per job)
// with the share of arrivals drawing each size.
var fgdMix = []struct {
	gpus  float64
	share int // percent
}{{0, 15}, {0.5, 20}, {1, 30}, {2, 15}, {4, 12}, {8, 8}}

// runAdmitMultires runs the same admission layers on a tree whose leaves
// declare gpu and net capacities, under the FARB policy. 40 % of the fleet
// (demanding nothing beyond power) is bootstrapped; the rest arrive carrying
// demands drawn from the FGD mix, sized so the whole stream asks for ≈130 %
// of the tree's gpu capacity, and are then churned. It is the only workload
// on which refusals occur.
func runAdmitMultires(r *run) error {
	const bootstrapPct, gpuLoad = 40, 1.3
	spec := fleetSpec{
		dc: workload.DC3, scale: r.pick(20, 2), weeks: trainWeeks + 1,
		policy: placement.PolicyConfig{Kind: placement.PolicyFARB},
	}
	// Size the per-leaf capacity so that the arriving 60 % of the fleet asks
	// for gpuLoad times the tree's total gpus; net follows gpu demand at a
	// mean factor of 1.5, so a net capacity of 1.6 gpus binds a little less.
	cfg, err := workload.StandardDCConfig(spec.dc, spec.scale)
	if err != nil {
		return err
	}
	mean := 0.0
	for _, c := range fgdMix {
		mean += c.gpus * float64(c.share) / 100
	}
	arrivals := float64(cfg.TotalInstances()) * (100 - bootstrapPct) / 100
	leaves := float64(cfg.Capacity() / cfg.InstancesPerLeaf)
	gpuPerLeaf := arrivals * mean / (gpuLoad * leaves)
	spec.caps = powertree.ResourceVector{"gpu": gpuPerLeaf, "net": 1.6 * gpuPerLeaf}

	drawRNG := rand.New(rand.NewSource(r.opt.Seed + 1))
	draws := make(map[string]powertree.ResourceVector)
	demand := func(m *workload.Instance) powertree.ResourceVector {
		if d, ok := draws[m.ID]; ok {
			return d
		}
		roll, gpus := drawRNG.Intn(100), 0.0
		for _, c := range fgdMix {
			if roll < c.share {
				gpus = c.gpus
				break
			}
			roll -= c.share
		}
		d := powertree.ResourceVector{}
		if gpus > 0 {
			// Network demand follows the job's size with a seeded wobble.
			d = powertree.ResourceVector{"gpu": gpus, "net": gpus * (1 + drawRNG.Float64())}
		}
		draws[m.ID] = d
		return d
	}
	resident, free, err := r.serve(spec, bootstrapPct, demand)
	if err != nil {
		return err
	}
	r.churn(resident, free, r.pick(200, 10), 0, r.pick(25, 5), r.pick(500, 20))
	return nil
}

// ---- plan_mix_2k -------------------------------------------------------------

// runPlanMix is the read-mostly, concurrent path: two planner clients on
// POST /v1/plan, each working through a seeded deck in which every ten
// queries hold six trip_breaker, three add_instances (count 16) and one
// replace_service, the replaced service cycling through the fleet's services
// so that a round — one full cycle — always holds the same work. Client 0
// performs an admit/retire pair every 20 queries, so the next query pays a
// snapshot recapture, and reads the fragmentation report every ten.
func runPlanMix(r *run) error {
	spec := fleetSpec{dc: workload.DC2, scale: r.pick(20, 2), weeks: trainWeeks + 1}
	resident, free, err := r.serve(spec, 98, nil)
	if err != nil {
		return err
	}
	e := r.env
	r.headline = "plan_trip"
	services := e.fleet.Services()
	var nodes []string
	e.empty.Walk(func(n *powertree.Node) {
		if n.Parent() != nil {
			nodes = append(nodes, n.Name)
		}
	})
	const clients, pairEvery, fragEvery = 2, 20, 10
	checkPairs := r.pick(6, 2)
	round := 10 * len(services)

	r.meters = make([]*meter, clients)
	for c := range r.meters {
		r.meters[c] = &meter{}
	}
	r.startClock()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.opt.Seed*1000 + int64(c)))
			m := r.meters[c]
			m.begin(time.Now())
			pairs, cold := 0, false
			for n := 1; ; n++ {
				q := deckQuery(rng, n, c, services, nodes)
				r.planQuery(q, cold)
				cold = false
				m.add(1, time.Now())
				if n%round == 0 {
					m.endRound(time.Now())
				}
				if c == 0 {
					if n%fragEvery == 0 {
						r.fragGet()
					}
					if n%pairEvery == 0 {
						inst := free.draw(r.rng)
						if r.admit(inst) {
							resident.add(inst)
						} else {
							free.add(inst)
						}
						victim := resident.draw(r.rng)
						r.retire(victim.ID)
						free.add(victim)
						pairs++
						cold = true
						if pairs == checkPairs {
							r.takeCheckpoint()
						}
					}
				}
				if r.expired() && (c != 0 || pairs >= checkPairs) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	r.stopClock()
	return nil
}

// deckQuery is the n-th query (1-based) of client c's deck. Position within
// each block of ten decides the kind; the draw decides the target.
func deckQuery(rng *rand.Rand, n, c int, services, nodes []string) plan.Query {
	// Kinds by position, spread so the expensive kinds do not bunch up.
	kinds := [10]string{
		plan.KindTripBreaker, plan.KindAddInstances, plan.KindTripBreaker, plan.KindTripBreaker, plan.KindAddInstances,
		plan.KindTripBreaker, plan.KindReplaceService, plan.KindTripBreaker, plan.KindAddInstances, plan.KindTripBreaker,
	}
	switch kinds[(n-1)%10] {
	case plan.KindAddInstances:
		return plan.Query{Kind: plan.KindAddInstances, Archetype: services[rng.Intn(len(services))], Count: 16}
	case plan.KindReplaceService:
		// Clients start half a cycle apart so they rarely replace the same
		// service at the same moment.
		block := (n-1)/10 + c*len(services)/2
		return plan.Query{Kind: plan.KindReplaceService, Service: services[block%len(services)]}
	default:
		return plan.Query{Kind: plan.KindTripBreaker, Node: nodes[rng.Intn(len(nodes))], BudgetFraction: 0.5}
	}
}
