package powertree

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoadTree checks that arbitrary JSON never panics the tree loader and
// that anything it accepts is a valid tree that round-trips.
func FuzzLoadTree(f *testing.F) {
	root, err := Build(TopologySpec{
		Name: "fz", SuitesPerDC: 1, MSBsPerSuite: 1, SBsPerMSB: 1, RPPsPerSB: 2, LeafBudget: 10,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := root.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"name":"x","level":0,"budget":1}`)
	f.Add(`{`)
	f.Add(`{"name":"x","level":0,"budget":-1}`)
	// Capacity vectors the loader must refuse: a negative amount, the
	// reserved power key, and a child declaring more than its parent. JSON
	// has no NaN or ±Inf, so the codec cannot carry those amounts at all.
	f.Add(`{"name":"x","level":0,"budget":1,"capacities":{"gpu":-1}}`)
	f.Add(`{"name":"x","level":0,"budget":1,"capacities":{"power":1}}`)
	f.Add(`{"name":"x","level":0,"budget":2,"capacities":{"gpu":1},"children":[{"name":"y","level":1,"budget":1,"capacities":{"gpu":2}}]}`)
	f.Fuzz(func(t *testing.T, input string) {
		tree, err := LoadTree(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("loader accepted an invalid tree: %v", err)
		}
		var out bytes.Buffer
		if err := tree.Save(&out); err != nil {
			t.Fatalf("accepted tree failed to save: %v", err)
		}
		back, err := LoadTree(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Name != tree.Name || back.InstanceCount() != tree.InstanceCount() {
			t.Fatal("round trip changed the tree")
		}
	})
}
