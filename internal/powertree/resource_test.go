package powertree

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestResourceVectorHelpers(t *testing.T) {
	v := ResourceVector{"net": 10, "space": 4}
	if got := v.Dimensions(); !reflect.DeepEqual(got, []string{"net", "space"}) {
		t.Fatalf("Dimensions = %v", got)
	}
	if ResourceVector(nil).Dimensions() != nil {
		t.Fatal("nil vector must have nil dimensions")
	}
	c := v.Clone()
	c["net"] = 99
	if v["net"] != 10 {
		t.Fatal("Clone must be independent")
	}
	if ResourceVector(nil).Clone() != nil {
		t.Fatal("Clone(nil) must stay nil")
	}

	acc := ResourceVector(nil).AddInPlace(v)
	acc = acc.AddInPlace(ResourceVector{"net": 1})
	if acc["net"] != 11 || acc["space"] != 4 {
		t.Fatalf("AddInPlace = %v", acc)
	}
	if v["net"] != 10 {
		t.Fatal("AddInPlace seeded from nil must clone, not alias")
	}
}

// TestUsageRerollMatchesRollUp: after instances move between leaves, a
// Reroll of the touched leaves must leave every node's used vector equal —
// bit for bit, with demands that are inexact in binary — to a fresh RollUp,
// and a resolver error must surface.
func TestUsageRerollMatchesRollUp(t *testing.T) {
	tree, err := Build(TopologySpec{Name: "u", SuitesPerDC: 1, MSBsPerSuite: 2, SBsPerMSB: 2, RPPsPerSB: 2, LeafBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	demands := make(map[string]ResourceVector)
	demand := func(id string) (ResourceVector, error) { return demands[id], nil }
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("i%d", i)
		if i%4 != 0 {
			demands[id] = ResourceVector{"gpu": float64(1+i%5) / 3, "net": 0.1 * float64(i)}
		}
		if err := leaves[i%len(leaves)].Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	usage, err := RollUp(tree, demand)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 50; step++ {
		from := leaves[rng.Intn(len(leaves))]
		to := leaves[rng.Intn(len(leaves))]
		if len(from.Instances) == 0 {
			continue
		}
		id := from.Instances[rng.Intn(len(from.Instances))]
		from.Detach(id)
		if err := to.Attach(id); err != nil {
			t.Fatal(err)
		}
		if err := usage.Reroll(demand, from, to); err != nil {
			t.Fatal(err)
		}
		fresh, err := RollUp(tree, demand)
		if err != nil {
			t.Fatal(err)
		}
		tree.Walk(func(n *Node) {
			if !reflect.DeepEqual(usage.Of(n), fresh.Of(n)) {
				t.Fatalf("step %d: used at %q = %v, fresh roll-up %v", step, n.Name, usage.Of(n), fresh.Of(n))
			}
		})
	}
	if got := usage.Of(tree).Get("gpu"); got == 0 {
		t.Fatal("root used no gpu; the fixture lost its demands")
	}

	var none *Usage
	if none.Of(tree) != nil {
		t.Fatal("a nil Usage must read as all-zero")
	}
	if zero, err := RollUp(tree, nil); err != nil || zero.Of(tree) != nil {
		t.Fatalf("nil resolver: %v, %v", zero.Of(tree), err)
	}
	boom := errors.New("boom")
	if _, err := RollUp(tree, func(string) (ResourceVector, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("resolver error: %v", err)
	}
}

func TestResourceVectorValidate(t *testing.T) {
	cases := []struct {
		name string
		v    ResourceVector
		want error
	}{
		{"nil ok", nil, nil},
		{"ok", ResourceVector{"net": 1}, nil},
		{"zero ok", ResourceVector{"net": 0}, nil},
		{"negative", ResourceVector{"net": -1}, ErrBadDimension},
		{"nan", ResourceVector{"net": math.NaN()}, ErrBadDimension},
		{"inf", ResourceVector{"net": math.Inf(1)}, ErrBadDimension},
		{"empty name", ResourceVector{"": 1}, ErrBadDimension},
		{"reserved", ResourceVector{"power": 1}, ErrReservedPower},
	}
	for _, tc := range cases {
		err := tc.v.Validate()
		if tc.want == nil && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestBuildDerivesCapacities(t *testing.T) {
	tree, err := Build(TopologySpec{
		Name: "dc", SuitesPerDC: 2, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget:     100,
		LeafCapacities: ResourceVector{"net": 10, "space": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tree.Capacities["net"]; got != 40 {
		t.Fatalf("root net capacity = %v, want 40 (4 leaves × 10)", got)
	}
	for _, leaf := range tree.Leaves() {
		if leaf.Capacities["space"] != 4 {
			t.Fatalf("leaf %s space capacity = %v", leaf.Name, leaf.Capacities["space"])
		}
	}
	// Leaves must not alias the spec's vector.
	leaves := tree.Leaves()
	leaves[0].Capacities["net"] = 1
	if leaves[1].Capacities["net"] != 10 {
		t.Fatal("leaf capacity vectors alias each other")
	}

	if _, err := Build(TopologySpec{
		SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": -1},
	}); !errors.Is(err, ErrBadDimension) {
		t.Fatalf("negative leaf capacity: got %v", err)
	}
}

func TestValidateCapacityInvariants(t *testing.T) {
	tree, err := Build(TopologySpec{
		SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf := tree.Leaves()[0]
	leaf.Capacities["net"] = 1000 // exceeds the parent SB's 20
	if err := tree.Validate(); !errors.Is(err, ErrCapacityExceed) {
		t.Fatalf("child > parent capacity: got %v", err)
	}
	leaf.Capacities["net"] = -3
	if err := tree.Validate(); !errors.Is(err, ErrBadDimension) {
		t.Fatalf("negative capacity: got %v", err)
	}
	// A child dimension the parent does not declare is fine (partial
	// declarations are allowed).
	leaf.Capacities = ResourceVector{"gpu_slots": 8}
	if err := tree.Validate(); err != nil {
		t.Fatalf("partial declaration: %v", err)
	}
}

func TestCodecRoundTripsCapacities(t *testing.T) {
	tree, err := Build(TopologySpec{
		SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": 10, "space": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Leaves()[0].Attach("i1"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"capacities"`) {
		t.Fatal("saved multi-resource tree must carry capacities")
	}
	got, err := LoadTree(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Capacities, tree.Capacities) {
		t.Fatalf("root capacities: got %v, want %v", got.Capacities, tree.Capacities)
	}
	if !reflect.DeepEqual(got.Leaves()[0].Capacities, tree.Leaves()[0].Capacities) {
		t.Fatal("leaf capacities did not round-trip")
	}
}

// TestCodecSingleResourceUnchanged pins the on-disk compatibility contract:
// a tree with no capacity vectors serializes without any "capacities" key,
// byte-identical to the pre-multi-resource format.
func TestCodecSingleResourceUnchanged(t *testing.T) {
	tree, err := Build(TopologySpec{
		SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "capacities") {
		t.Fatalf("single-resource tree must not serialize capacities:\n%s", buf.String())
	}
	if _, err := LoadTree(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func TestCloneCopiesCapacities(t *testing.T) {
	tree, err := Build(TopologySpec{
		SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 1,
		LeafBudget: 100, LeafCapacities: ResourceVector{"net": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := tree.Clone()
	c.Leaves()[0].Capacities["net"] = 7
	if tree.Leaves()[0].Capacities["net"] != 10 {
		t.Fatal("Clone must deep-copy capacity vectors")
	}
}
