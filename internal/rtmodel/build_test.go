package rtmodel_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/delta"
	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// oracleBuild is the per-node builder Build replaced: it appends every
// node, attribute and child index as it goes and sorts a slice of
// attribute names per node. It is kept as the reference the slab
// builder must reproduce node for node.
func oracleBuild(root *model.Component) *rtmodel.Model {
	m := &rtmodel.Model{}
	var rec func(c *model.Component, parent int32) int32
	rec = func(c *model.Component, parent int32) int32 {
		idx := int32(len(m.Nodes))
		n := rtmodel.Node{
			Kind: c.Kind, Name: c.Name, ID: c.ID, Type: c.Type,
			Parent: parent,
		}
		names := make([]string, 0, len(c.Attrs))
		for k := range c.Attrs {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			n.Attrs = append(n.Attrs, rtmodel.AttrOf(k, c.Attrs[k]))
		}
		for _, p := range c.Properties {
			rp := rtmodel.Prop{Name: p.Name}
			keys := make([]string, 0, len(p.Attrs))
			for k := range p.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				rp.KVs = append(rp.KVs, [2]string{k, p.Attrs[k]})
			}
			n.Props = append(n.Props, rp)
		}
		m.Nodes = append(m.Nodes, n)
		for _, ch := range c.Children {
			ci := rec(ch, idx)
			m.Nodes[idx].Children = append(m.Nodes[idx].Children, ci)
		}
		return idx
	}
	rec(root, -1)
	return m
}

var (
	systemsOnce sync.Once
	systems     map[string]*model.Component
	systemsErr  error
)

// composedSystems resolves and analyzes every system model under
// models/system once per test binary, as the toolchain hands them to
// Build.
func composedSystems(tb testing.TB) map[string]*model.Component {
	tb.Helper()
	systemsOnce.Do(func() {
		dir := filepath.Join("..", "..", "models")
		files, err := filepath.Glob(filepath.Join(dir, "system", "*.xpdl"))
		if err != nil || len(files) == 0 {
			systemsErr = err
			return
		}
		tc, err := core.New(core.Options{SearchPaths: []string{dir}})
		if err != nil {
			systemsErr = err
			return
		}
		systems = map[string]*model.Component{}
		for _, f := range files {
			name := strings.TrimSuffix(filepath.Base(f), ".xpdl")
			res, err := tc.Process(name)
			if err != nil {
				systemsErr = err
				return
			}
			systems[name] = res.System
		}
	})
	if systemsErr != nil || len(systems) == 0 {
		tb.Fatalf("composing models/system: %v (%d systems)", systemsErr, len(systems))
	}
	return systems
}

// xeonPlan is a bounded attribute edit of the Xeon descriptor that
// every XScluster core group inherits.
var xeonPlan = delta.Plan{
	Patches: []delta.Patch{{
		Type: "Intel_Xeon_E5_2630L", Attr: "static_power", Old: "15 W",
		New: model.Attr{Raw: "17", Quantity: units.MustParse("17", "W"), HasQuantity: true},
	}},
	NeedAnnotate: true,
}

// checkSlabBuild compares Build with the oracle over one tree and
// checks the slab layout: every Attrs and Children is capped, so an
// append to one node reallocates and leaves every other node alone.
func checkSlabBuild(t *testing.T, name string, tree *model.Component) {
	t.Helper()
	got, want := rtmodel.Build(tree), oracleBuild(tree)
	if !rtmodel.Equal(got, want) {
		t.Fatalf("%s: Build differs from the per-node oracle", name)
	}
	for i := range got.Nodes {
		n := &got.Nodes[i]
		if len(n.Attrs) != cap(n.Attrs) || len(n.Children) != cap(n.Children) {
			t.Fatalf("%s: node %d: attrs len %d cap %d, children len %d cap %d",
				name, i, len(n.Attrs), cap(n.Attrs), len(n.Children), cap(n.Children))
		}
		attrs := append(n.Attrs, rtmodel.Attr{Name: "~appended"})
		kids := append(n.Children, -7)
		if len(n.Attrs) > 0 && &attrs[0] == &n.Attrs[0] || len(n.Children) > 0 && &kids[0] == &n.Children[0] {
			t.Fatalf("%s: node %d: append grew in place", name, i)
		}
	}
	// Had any append written past its node's entries, a neighbour
	// would now differ from the oracle.
	if !rtmodel.Equal(got, want) {
		t.Fatalf("%s: appending to one node changed another", name)
	}
}

func TestBuildMatchesOracle(t *testing.T) {
	sys := composedSystems(t)
	names := make([]string, 0, len(sys))
	for name := range sys {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checkSlabBuild(t, name, sys[name])
	}
	xs := sys["XScluster"]
	if xs == nil {
		t.Fatal("models/system has no XScluster")
	}
	patched, _, n := delta.Apply(xs, "XScluster", xeonPlan, nil)
	if n == 0 {
		t.Fatal("Xeon plan patched nothing; the comparison proves nothing")
	}
	checkSlabBuild(t, "XScluster patched", patched)
}

// TestPatchedModelLookup checks that the model ApplyRT returns, which
// keeps its predecessor's identifier index, answers every identifier
// as a freshly built and indexed model of the patched tree does.
func TestPatchedModelLookup(t *testing.T) {
	xs := composedSystems(t)["XScluster"]
	prev := rtmodel.Build(xs)
	prev.Lookup("") // index the predecessor, as a query session does
	patched, n := delta.ApplyRT(prev, "XScluster", xeonPlan, nil)
	tree, _, refN := delta.Apply(xs, "XScluster", xeonPlan, nil)
	if n == 0 || n != refN {
		t.Fatalf("ApplyRT patched %d attributes, Apply %d", n, refN)
	}
	fresh := rtmodel.Build(tree)
	if !rtmodel.Equal(patched, fresh) {
		t.Fatal("ApplyRT result differs from Build over the patched tree")
	}
	idents := []string{"", "no-such-element"}
	for i := range fresh.Nodes {
		idents = append(idents, fresh.Nodes[i].Ident())
	}
	for _, id := range idents {
		gi, gok := patched.LookupIndex(id)
		wi, wok := fresh.LookupIndex(id)
		if gi != wi || gok != wok {
			t.Fatalf("LookupIndex(%q) = %d, %v; fresh model says %d, %v", id, gi, gok, wi, wok)
		}
		gn, gok := patched.Lookup(id)
		wn, wok := fresh.Lookup(id)
		if gok != wok || gok && !rtmodel.NodeContentEqual(gn, wn) {
			t.Fatalf("Lookup(%q) differs from the fresh model", id)
		}
	}
	if !rtmodel.Equal(prev, oracleBuild(xs)) {
		t.Fatal("ApplyRT changed its input model")
	}
}

// BenchmarkBuild measures one runtime-model build of the composed
// XScluster tree (44k elements). CI gates its allocations
// (rtmodel_build_xscluster in internal/serve/testdata/alloc_budget.json).
func BenchmarkBuild(b *testing.B) {
	xs := composedSystems(b)["XScluster"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink = rtmodel.Build(xs)
	}
}

// buildSink keeps the compiler from dropping a measured Build.
var buildSink *rtmodel.Model

// TestBuildAllocBudget gates Build's allocations on XScluster in
// process: the slab builder allocates a fixed handful of arrays per
// model (plus one per property block), where a per-node builder
// allocates several per node.
func TestBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	data, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "alloc_budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		Build float64 `json:"rtmodel_build_xscluster"`
	}
	if err := json.Unmarshal(data, &budget); err != nil {
		t.Fatal(err)
	}
	if budget.Build <= 0 {
		t.Fatal("alloc_budget.json has no rtmodel_build_xscluster budget")
	}
	xs := composedSystems(t)["XScluster"]
	if got := testing.AllocsPerRun(5, func() { buildSink = rtmodel.Build(xs) }); got > budget.Build {
		t.Errorf("Build(XScluster): %.0f allocs, budget %.0f", got, budget.Build)
	}
}
