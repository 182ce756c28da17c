// Package placement implements SmoothOperator's workload-aware service
// instance placement (§3.5), the baseline placements it is compared against,
// and the swap-based incremental remapping used to adapt to workload drift
// (§3.6).
//
// A placer decides which leaf power node hosts each service instance. The
// workload-aware placer embeds instances in asynchrony-score space, clusters
// them into equal-size synchronous groups, and deals every cluster evenly
// across the children at each level of the power tree from the top down, so
// that synchronous instances end up spread out and every node's aggregate
// trace is smooth.
package placement

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/detmap"
	"repro/internal/powertree"
	"repro/internal/score"
	"repro/internal/timeseries"
)

// Instance identifies a service instance to be placed. It is a value
// identifier handed across layers and never modified after construction.
//
// smoothop:immutable
type Instance struct {
	// ID is the unique instance ID.
	ID string
	// Service is the owning service, used for service-grouped baselines and
	// per-subtree S-trace extraction.
	Service string
	// Demands optionally declares the instance's non-power resource demand
	// vector. It takes precedence over the placer's DemandFn for this
	// instance; nil means power-only (or "ask the DemandFn").
	Demands powertree.ResourceVector
}

// TraceFn resolves an instance ID to its averaged I-trace. Like
// powertree.PowerFn, implementations must be safe for concurrent calls:
// LevelAsynchrony (and so Remap) aggregates over them with AggregateAll,
// which folds leaves on multiple workers.
type TraceFn func(id string) (timeseries.Series, bool)

// Placer attaches every instance to a leaf of the tree.
type Placer interface {
	// Place populates tree (which must have no attached instances) with the
	// given instances. Implementations must place every instance exactly
	// once and must not modify the topology.
	Place(tree *powertree.Node, instances []Instance, traces TraceFn) error
}

// Errors shared by placers.
var (
	ErrNoLeaves     = errors.New("placement: tree has no leaves")
	ErrTreeOccupied = errors.New("placement: tree already hosts instances")
	ErrMissingTrace = errors.New("placement: missing trace")
)

// Verify checks that the tree hosts exactly the given instances, each once.
func Verify(tree *powertree.Node, instances []Instance) error {
	placed := tree.AllInstances()
	if len(placed) != len(instances) {
		return fmt.Errorf("placement: %d placed, %d expected", len(placed), len(instances))
	}
	seen := make(map[string]bool, len(placed))
	for _, id := range placed {
		if seen[id] {
			return fmt.Errorf("placement: instance %q placed twice", id)
		}
		seen[id] = true
	}
	for _, inst := range instances {
		if !seen[inst.ID] {
			return fmt.Errorf("placement: instance %q not placed", inst.ID)
		}
	}
	return nil
}

func checkEmpty(tree *powertree.Node) error {
	if tree.InstanceCount() != 0 {
		return ErrTreeOccupied
	}
	if len(tree.Leaves()) == 0 {
		return ErrNoLeaves
	}
	return nil
}

// dealRoundRobin attaches instances to leaves one at a time in leaf order,
// starting at leaf offset%len(leaves). A single deal over an empty tree is
// balanced (±1) from any offset; repeated deals — as online admission makes —
// stay balanced only if each call resumes where the previous one stopped,
// so callers dealing onto occupied leaves must pass the occupancy so far
// (see dealOccupancy) instead of restarting at leaf 0 and piling every
// remainder onto the lowest-index leaves.
func dealRoundRobin(leaves []*powertree.Node, ids []string, offset int) error {
	for i, id := range ids {
		if err := leaves[(offset+i)%len(leaves)].Attach(id); err != nil {
			return err
		}
	}
	return nil
}

// dealOccupancy is the round-robin resume point for a set of leaves: the
// number of instances they already host.
func dealOccupancy(leaves []*powertree.Node) int {
	total := 0
	for _, leaf := range leaves {
		total += len(leaf.Instances)
	}
	return total
}

// Oblivious is the production-baseline placer: instances of the same
// service are packed together, filling leaves sequentially. This is the
// "oblivious service placement" whose synchronous groupings cause the
// fragmentation of Fig. 1/Fig. 3 ("instances of the same services are
// typically placed together").
//
// MixFraction models how balanced a particular datacenter's historical
// placement happens to be: §5.2.1 observes that DC1's original placement was
// "more balanced" while DC3's packed synchronous instances under the same
// sub-trees. A fraction of instances (selected deterministically, spread
// across services) is dealt round-robin instead of being packed.
type Oblivious struct {
	// MixFraction in [0, 1]: 0 packs every service together (worst case),
	// 1 deals everything round-robin (fully balanced history).
	MixFraction float64
}

// Place implements Placer.
func (o Oblivious) Place(tree *powertree.Node, instances []Instance, _ TraceFn) error {
	if err := checkEmpty(tree); err != nil {
		return err
	}
	leaves := tree.Leaves()
	perLeaf := (len(instances) + len(leaves) - 1) / len(leaves)
	if perLeaf == 0 {
		perLeaf = 1
	}
	sorted := append([]Instance(nil), instances...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Service != sorted[j].Service {
			return sorted[i].Service < sorted[j].Service
		}
		return sorted[i].ID < sorted[j].ID
	})
	// Split into a packed majority and a mixed minority: every ⌈1/f⌉-th
	// instance of the service-sorted order joins the mixed set, which
	// samples all services evenly.
	var packed, mixed []Instance
	frac := o.MixFraction
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if frac == 0 {
		packed = sorted
	} else {
		stride := int(1 / frac)
		if stride < 1 {
			stride = 1
		}
		for i, inst := range sorted {
			if i%stride == 0 {
				mixed = append(mixed, inst)
			} else {
				packed = append(packed, inst)
			}
		}
	}
	// Pack the grouped majority sequentially, reserving per-leaf room for
	// the mixed share.
	mixedPerLeaf := (len(mixed) + len(leaves) - 1) / len(leaves)
	groupCap := perLeaf - mixedPerLeaf
	if groupCap < 1 {
		groupCap = 1
	}
	leaf, used := 0, 0
	for _, inst := range packed {
		if used == groupCap {
			leaf++
			used = 0
		}
		if leaf >= len(leaves) {
			leaf = len(leaves) - 1
		}
		if err := leaves[leaf].Attach(inst.ID); err != nil {
			return err
		}
		used++
	}
	// Deal the mixed minority round-robin across all leaves.
	for i, inst := range mixed {
		if err := leaves[i%len(leaves)].Attach(inst.ID); err != nil {
			return err
		}
	}
	return nil
}

// Random deals instances to leaves in a deterministic shuffled order —
// a service-agnostic baseline between oblivious and workload-aware.
type Random struct {
	// Seed fixes the shuffle.
	Seed int64
}

// Place implements Placer.
func (r Random) Place(tree *powertree.Node, instances []Instance, _ TraceFn) error {
	if err := checkEmpty(tree); err != nil {
		return err
	}
	ids := make([]string, len(instances))
	for i, inst := range instances {
		ids[i] = inst.ID
	}
	sort.Strings(ids)
	rng := newRand(r.Seed)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	leaves := tree.Leaves()
	return dealRoundRobin(leaves, ids, dealOccupancy(leaves))
}

// WorkloadAware is SmoothOperator's placer (§3.5).
type WorkloadAware struct {
	// TopServices is |B|, the number of top power-consumer services whose
	// S-traces span the embedding space. 0 means 10.
	TopServices int
	// ClustersPerChild sets h = ClustersPerChild × q clusters at a node with
	// q children. 0 means 2.
	ClustersPerChild int
	// Seed makes clustering deterministic.
	Seed int64
	// GlobalBasis, when true, extracts the S-trace basis once at the root
	// and reuses it at every level instead of re-extracting per subtree.
	// The paper re-extracts per subtree ("The first step is to extract |B|
	// S-traces out of these servers"); the global variant is an ablation.
	GlobalBasis bool
	// IToI, when true, replaces the I-to-S embedding with pairwise I-to-I
	// asynchrony scores against a fixed sample of instances — the approach
	// §3.4 argues against (quadratic cost, sparse high-dimensional space).
	// Kept as an ablation.
	IToI bool
	// IToISample is the number of reference instances for the I-to-I
	// ablation. 0 means 32.
	IToISample int
	// PlainKMeans, when true, uses unbalanced k-means instead of the
	// balanced variant — an ablation of the equal-size-cluster requirement
	// ("Each of these clusters have the same number of instances", §3.5).
	PlainKMeans bool
	// Workers bounds the goroutines used by the embedding and clustering
	// stages; 0 means the default (SMOOTHOP_WORKERS or GOMAXPROCS). The
	// placement is identical for any worker count.
	Workers int
}

func (w WorkloadAware) topServices() int {
	if w.TopServices <= 0 {
		return 10
	}
	return w.TopServices
}

func (w WorkloadAware) clustersPerChild() int {
	if w.ClustersPerChild <= 0 {
		return 2
	}
	return w.ClustersPerChild
}

// Place implements Placer.
func (w WorkloadAware) Place(tree *powertree.Node, instances []Instance, traces TraceFn) error {
	if err := checkEmpty(tree); err != nil {
		return err
	}
	sorted := append([]Instance(nil), instances...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	resolved := make(map[string]timeseries.Series, len(sorted))
	for _, inst := range sorted {
		tr, ok := traces(inst.ID)
		if !ok {
			return fmt.Errorf("%w for instance %q", ErrMissingTrace, inst.ID)
		}
		resolved[inst.ID] = tr
	}
	var globalBasis []timeseries.Series
	if w.GlobalBasis {
		var err error
		globalBasis, err = w.extractBasis(sorted, resolved)
		if err != nil {
			return err
		}
	}
	return w.placeRecursive(tree, sorted, resolved, globalBasis)
}

// extractBasis builds the S-traces of the top |B| power-consumer services
// among the given instances (Eq. 5).
func (w WorkloadAware) extractBasis(instances []Instance, traces map[string]timeseries.Series) ([]timeseries.Series, error) {
	type svcAgg struct {
		name  string
		total float64
	}
	byService := make(map[string][]timeseries.Series)
	power := make(map[string]float64)
	for _, inst := range instances {
		tr := traces[inst.ID]
		byService[inst.Service] = append(byService[inst.Service], tr)
		power[inst.Service] += tr.MeanValue()
	}
	aggs := make([]svcAgg, 0, len(power))
	for _, svc := range detmap.SortedKeys(power) {
		aggs = append(aggs, svcAgg{svc, power[svc]})
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].total != aggs[j].total {
			return aggs[i].total > aggs[j].total
		}
		return aggs[i].name < aggs[j].name
	})
	b := w.topServices()
	if b > len(aggs) {
		b = len(aggs)
	}
	names := make([]string, b)
	for i := 0; i < b; i++ {
		names[i] = aggs[i].name
	}
	return score.ServiceTraces(names, byService)
}

// embed turns every instance into a point in score space.
func (w WorkloadAware) embed(instances []Instance, traces map[string]timeseries.Series, basis []timeseries.Series) ([][]float64, error) {
	if w.IToI {
		return w.embedIToI(instances, traces)
	}
	series := make([]timeseries.Series, len(instances))
	for i, inst := range instances {
		series[i] = traces[inst.ID]
	}
	return score.VectorsParallel(series, basis, w.Workers)
}

// embedIToI is the ablation embedding: pairwise asynchrony scores against a
// deterministic sample of reference instances.
func (w WorkloadAware) embedIToI(instances []Instance, traces map[string]timeseries.Series) ([][]float64, error) {
	sample := w.IToISample
	if sample <= 0 {
		sample = 32
	}
	if sample > len(instances) {
		sample = len(instances)
	}
	// Deterministic sample: evenly strided over the sorted instances.
	refs := make([]timeseries.Series, sample)
	stride := len(instances) / sample
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < sample; i++ {
		refs[i] = traces[instances[(i*stride)%len(instances)].ID]
	}
	out := make([][]float64, len(instances))
	for i, inst := range instances {
		tr := traces[inst.ID]
		v := make([]float64, sample)
		for j, ref := range refs {
			s, err := score.Pairwise(tr, ref.NormalizeTo(tr.Peak()))
			if err != nil {
				return nil, fmt.Errorf("placement: I-to-I score for %q: %w", inst.ID, err)
			}
			v[j] = s
		}
		out[i] = v
	}
	return out, nil
}

func (w WorkloadAware) placeRecursive(node *powertree.Node, instances []Instance, traces map[string]timeseries.Series, basis []timeseries.Series) error {
	if len(instances) == 0 {
		return nil
	}
	if node.IsLeaf() {
		for _, inst := range instances {
			if err := node.Attach(inst.ID); err != nil {
				return err
			}
		}
		return nil
	}
	q := len(node.Children)
	groups, err := w.partition(node, instances, traces, basis, q)
	if err != nil {
		return err
	}
	for i, child := range node.Children {
		if err := w.placeRecursive(child, groups[i], traces, basis); err != nil {
			return err
		}
	}
	return nil
}

// partition splits instances into q child groups using balanced clustering
// and a round-robin deal of every cluster across the children.
func (w WorkloadAware) partition(node *powertree.Node, instances []Instance, traces map[string]timeseries.Series, basis []timeseries.Series, q int) ([][]Instance, error) {
	groups := make([][]Instance, q)
	if len(instances) <= q {
		for i, inst := range instances {
			groups[i] = []Instance{inst}
		}
		return groups, nil
	}
	levelBasis := basis
	if levelBasis == nil {
		var err error
		levelBasis, err = w.extractBasis(instances, traces)
		if err != nil {
			return nil, fmt.Errorf("placement: basis at %q: %w", node.Name, err)
		}
	}
	points, err := w.embed(instances, traces, levelBasis)
	if err != nil {
		return nil, fmt.Errorf("placement: embedding at %q: %w", node.Name, err)
	}
	h := w.clustersPerChild() * q
	if h > len(instances) {
		h = q
	}
	clusterFn := cluster.BalancedKMeans
	if w.PlainKMeans {
		clusterFn = cluster.KMeans
	}
	res, err := clusterFn(points, cluster.Config{K: h, Seed: w.Seed, Restarts: 1, Workers: w.Workers})
	if err != nil {
		return nil, fmt.Errorf("placement: clustering at %q: %w", node.Name, err)
	}
	// Deal each cluster's members across the q children round-robin,
	// starting each cluster at a rotated child so remainders don't pile on
	// child 0.
	for c := 0; c < h; c++ {
		members := res.Members(c)
		for i, m := range members {
			child := (i + c) % q
			groups[child] = append(groups[child], instances[m])
		}
	}
	return groups, nil
}
