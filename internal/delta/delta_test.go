package delta

import (
	"fmt"
	"testing"

	"xpdl/internal/analysis"
	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// fixture builds the descriptor map of a small but representative
// closure:
//
//	srv    system: a node holding two cpuT instances, one fastT
//	       instance, and a DDR4 leaf technology tag
//	cpuT   cpu meta-type extending baseT: frequency, static_power
//	baseT  base cpu meta-type: litho
//	fastT  cpu meta-type extending cpuT, pinning frequency
//
// cpuT also carries two caches so the structural mutation classes
// (element-add/remove, rename, reorder, nested edits) all apply.
func fixture() map[string]*model.Component {
	base := model.New("cpu")
	base.Name = "baseT"
	base.SetAttr("litho", model.Attr{Raw: "22"})

	cpu := model.New("cpu")
	cpu.Name = "cpuT"
	cpu.Extends = []string{"baseT"}
	cpu.SetQuantity("frequency", units.MustParse("2", "GHz"))
	cpu.SetQuantity("static_power", units.MustParse("15", "W"))
	for _, c := range []string{"L1", "L2"} {
		cache := model.New("cache")
		cache.Name = c
		cache.SetAttr("size", model.Attr{Raw: "32"})
		cpu.Children = append(cpu.Children, cache)
	}

	fast := model.New("cpu")
	fast.Name = "fastT"
	fast.Extends = []string{"cpuT"}
	fast.SetQuantity("frequency", units.MustParse("3", "GHz"))

	srv := model.New("system")
	srv.Name = "srv"
	node := model.New("node")
	node.ID = "n0"
	for _, id := range []string{"c0", "c1"} {
		c := model.New("cpu")
		c.ID = id
		c.Type = "cpuT"
		node.Children = append(node.Children, c)
	}
	f := model.New("cpu")
	f.ID = "cf"
	f.Type = "fastT"
	node.Children = append(node.Children, f)
	mem := model.New("memory")
	mem.ID = "m0"
	mem.Type = "DDR4" // leaf technology tag: resolves to no descriptor
	node.Children = append(node.Children, mem)
	srv.Children = append(srv.Children, node)

	return map[string]*model.Component{
		"srv": srv, "cpuT": cpu, "baseT": base, "fastT": fast,
	}
}

func captureFixture(t *testing.T, descs map[string]*model.Component) *Set {
	t.Helper()
	set, err := Capture("srv", func(id string) (*model.Component, error) {
		if c, ok := descs[id]; ok {
			return c.Clone(), nil
		}
		return nil, fmt.Errorf("unknown descriptor %s", id)
	})
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	return set
}

// analyzeFixture captures the fixture twice — setup applied to both
// sides, edit only to the new one — and analyzes the pair.
func analyzeFixture(t *testing.T, setup, edit func(descs map[string]*model.Component)) Analysis {
	t.Helper()
	oldDescs, newDescs := fixture(), fixture()
	if setup != nil {
		setup(oldDescs)
		setup(newDescs)
	}
	edit(newDescs)
	return Analyze(captureFixture(t, oldDescs), captureFixture(t, newDescs), nil)
}

func TestCaptureClosure(t *testing.T) {
	set := captureFixture(t, fixture())
	if set.Root != "srv" {
		t.Fatalf("root %q", set.Root)
	}
	for _, id := range []string{"srv", "cpuT", "baseT", "fastT"} {
		d := set.Descs[id]
		if d == nil {
			t.Fatalf("descriptor %s missing from closure; have %v", id, set.Descs)
		}
		if d.Hash == "" || d.Comp == nil {
			t.Fatalf("descriptor %s incompletely captured: %+v", id, d)
		}
	}
	if len(set.Descs) != 4 {
		t.Fatalf("closure has %d descriptors, want 4", len(set.Descs))
	}
	if !set.Absent["DDR4"] || len(set.Absent) != 1 {
		t.Fatalf("absent set %v, want {DDR4}", set.Absent)
	}
}

func TestCaptureRootMissing(t *testing.T) {
	descs := fixture()
	_, err := Capture("nope", func(id string) (*model.Component, error) {
		if c, ok := descs[id]; ok {
			return c, nil
		}
		return nil, fmt.Errorf("unknown descriptor %s", id)
	})
	if err == nil {
		t.Fatal("missing root did not fail the capture")
	}
}

func TestAnalyzeUnchanged(t *testing.T) {
	an := Analyze(captureFixture(t, fixture()), captureFixture(t, fixture()), nil)
	if an.Outcome != Unchanged || len(an.Changed) != 0 {
		t.Fatalf("identical closures analyzed as %+v", an)
	}
}

func TestAnalyzeAttrEditPatchable(t *testing.T) {
	an := analyzeFixture(t, nil, func(descs map[string]*model.Component) {
		descs["cpuT"].SetQuantity("frequency", units.MustParse("4", "GHz"))
	})
	if an.Outcome != Patchable {
		t.Fatalf("frequency edit: outcome %v reason %q, want Patchable", an.Outcome, an.Reason)
	}
	if len(an.Changed) != 1 || an.Changed[0] != "cpuT" {
		t.Fatalf("changed %v, want [cpuT]", an.Changed)
	}
	// fastT pins frequency with its own declaration, so only cpuT
	// instances inherit the new value.
	if len(an.Plan.Patches) != 1 {
		t.Fatalf("patches %+v, want exactly one", an.Plan.Patches)
	}
	p := an.Plan.Patches[0]
	if p.Type != "cpuT" || p.Attr != "frequency" || p.Old != "2 GHz" {
		t.Fatalf("patch %+v", p)
	}
	if an.Plan.NeedAnnotate || an.Plan.NeedDowngrade {
		t.Fatalf("frequency edit flagged re-analysis: %+v", an.Plan)
	}
}

func TestAnalyzeRollupSourceNeedsAnnotate(t *testing.T) {
	an := analyzeFixture(t, nil, func(descs map[string]*model.Component) {
		descs["cpuT"].SetQuantity("static_power", units.MustParse("20", "W"))
	})
	if an.Outcome != Patchable || !an.Plan.NeedAnnotate {
		t.Fatalf("static_power edit: %+v", an)
	}
	// fastT does not pin static_power, so its instances inherit too.
	types := map[string]bool{}
	for _, p := range an.Plan.Patches {
		if p.Attr != "static_power" {
			t.Fatalf("unexpected patch %+v", p)
		}
		types[p.Type] = true
	}
	if !types["cpuT"] || !types["fastT"] || len(types) != 2 {
		t.Fatalf("patched types %v, want {cpuT, fastT}", types)
	}
}

func TestAnalyzeBandwidthSourceNeedsDowngrade(t *testing.T) {
	setup := func(descs map[string]*model.Component) {
		descs["cpuT"].SetQuantity(analysis.BandwidthSource, units.MustParse("100", "GB/s"))
	}
	an := analyzeFixture(t, setup, func(descs map[string]*model.Component) {
		descs["cpuT"].SetQuantity(analysis.BandwidthSource, units.MustParse("80", "GB/s"))
	})
	if an.Outcome != Patchable || !an.Plan.NeedDowngrade {
		t.Fatalf("max_bandwidth edit: %+v", an)
	}
}

func TestAnalyzeRollupTargetUnbounded(t *testing.T) {
	setup := func(descs map[string]*model.Component) {
		descs["cpuT"].SetQuantity("static_power_total", units.MustParse("60", "W"))
	}
	an := analyzeFixture(t, setup, func(descs map[string]*model.Component) {
		descs["cpuT"].SetQuantity("static_power_total", units.MustParse("70", "W"))
	})
	if an.Outcome != Fallback || an.Reason != "unbounded" {
		t.Fatalf("rollup-target edit: %+v, want unbounded fallback", an)
	}
}

func TestAnalyzeStructuralFallbacks(t *testing.T) {
	cases := []struct {
		name string
		edit func(descs map[string]*model.Component)
	}{
		{"attr-add", func(d map[string]*model.Component) {
			d["cpuT"].SetAttr("probe", model.Attr{Raw: "7"})
		}},
		{"attr-remove", func(d map[string]*model.Component) {
			delete(d["cpuT"].Attrs, "frequency")
		}},
		{"element-add", func(d map[string]*model.Component) {
			c := model.New("cache")
			c.Name = "L3"
			d["cpuT"].Children = append(d["cpuT"].Children, c)
		}},
		{"element-remove", func(d map[string]*model.Component) {
			d["cpuT"].Children = d["cpuT"].Children[:1]
		}},
		{"nested-edit", func(d map[string]*model.Component) {
			d["cpuT"].Children[0].SetAttr("size", model.Attr{Raw: "64"})
		}},
		{"rename", func(d map[string]*model.Component) {
			d["cpuT"].Children[0].Name = "L1i"
		}},
	}
	for _, tc := range cases {
		an := analyzeFixture(t, nil, tc.edit)
		if an.Outcome != Fallback || an.Reason != "structural" {
			t.Errorf("%s: %+v, want structural fallback", tc.name, an)
		}
	}
}

func TestAnalyzeClosureShapeChange(t *testing.T) {
	// Retargeting an instance's type reference changes the closure's
	// key set (fastT drops out) — refused before any diffing.
	an := analyzeFixture(t, nil, func(descs map[string]*model.Component) {
		descs["srv"].Children[0].Children[2].Type = "cpuT"
	})
	if an.Outcome != Fallback || an.Reason != "structural" {
		t.Fatalf("closure shape change: %+v, want structural fallback", an)
	}
}

func TestAnalyzeParamsFallbacks(t *testing.T) {
	// A value that reads like a parameter reference could be rewritten
	// by scope substitution during a full resolve.
	an := analyzeFixture(t, nil, func(descs map[string]*model.Component) {
		descs["cpuT"].SetAttr("frequency", model.Attr{Raw: "CLK_PARAM"})
	})
	if an.Outcome != Fallback || an.Reason != "params" {
		t.Fatalf("ident-like edit: %+v, want params fallback", an)
	}
	// A pure reorder of identified children changes the canonical hash
	// while the attribute diff sees nothing (see internal/diff's
	// TestReorderIdentifiedChildrenInvisible) — refused as params.
	an = analyzeFixture(t, nil, func(descs map[string]*model.Component) {
		kids := descs["cpuT"].Children
		descs["cpuT"].Children = append(kids[1:], kids[0])
	})
	if an.Outcome != Fallback || an.Reason != "params" {
		t.Fatalf("reorder: %+v, want params fallback", an)
	}
}

func TestAnalyzeOverrideFallback(t *testing.T) {
	// An instance declaration pins the edited attribute: its value
	// wins over the inherited one, so the patch direction is ambiguous.
	setup := func(descs map[string]*model.Component) {
		descs["srv"].Children[0].Children[0].SetQuantity("frequency", units.MustParse("1", "GHz"))
	}
	an := analyzeFixture(t, setup, func(descs map[string]*model.Component) {
		descs["cpuT"].SetQuantity("frequency", units.MustParse("4", "GHz"))
	})
	if an.Outcome != Fallback || an.Reason != "override" {
		t.Fatalf("instance-pinned edit: %+v, want override fallback", an)
	}
	// A second supertype also declaring the attribute makes the merge
	// order decide which value wins.
	setup = func(descs map[string]*model.Component) {
		descs["baseT"].SetQuantity("static_power", units.MustParse("5", "W"))
		descs["fastT"].Extends = []string{"cpuT", "baseT"}
	}
	an = analyzeFixture(t, setup, func(descs map[string]*model.Component) {
		descs["cpuT"].SetQuantity("static_power", units.MustParse("20", "W"))
	})
	if an.Outcome != Fallback || an.Reason != "override" {
		t.Fatalf("multi-super edit: %+v, want override fallback", an)
	}
}

func TestApplyPatchesAndReannotates(t *testing.T) {
	rules := analysis.DefaultRules()
	sys := model.New("system")
	sys.ID = "srv"
	sys.SetAttr("tdp", model.Attr{Raw: "100"})
	for i := 0; i < 3; i++ {
		c := model.New("cpu")
		c.ID = fmt.Sprintf("c%d", i)
		c.Type = "cpuT"
		c.SetQuantity("static_power", units.MustParse("15", "W"))
		sys.Children = append(sys.Children, c)
	}
	// c2 carries a different current value — it never held the
	// inherited one, so the patch must leave it alone.
	sys.Children[2].SetQuantity("static_power", units.MustParse("9", "W"))
	analysis.Annotate(sys, rules)
	origTotal := sys.Attrs["static_power_total"].Quantity.Value

	plan := Plan{
		Patches: []Patch{
			{Type: "cpuT", Attr: "static_power", Old: "15 W",
				New: model.Attr{Raw: "20", Quantity: units.MustParse("20", "W"), HasQuantity: true}},
			{Type: "srv", Attr: "tdp", Old: "100", New: model.Attr{Raw: "120"}},
		},
		NeedAnnotate: true,
	}
	patched, paths, n := Apply(sys, "srv", plan, nil)
	if n != 3 {
		t.Fatalf("applied %d patches, want 3 (two cpus + root)", n)
	}
	wantPaths := map[string]bool{"/srv": true, "/srv/c0": true, "/srv/c1": true}
	if len(paths) != 3 {
		t.Fatalf("changed paths %v", paths)
	}
	for _, p := range paths {
		if !wantPaths[p] {
			t.Fatalf("unexpected changed path %s in %v", p, paths)
		}
	}
	if got := patched.Attrs["tdp"].Raw; got != "120" {
		t.Fatalf("root patch not applied: tdp %q", got)
	}
	if v := patched.Children[2].Attrs["static_power"].Quantity.Value; v != units.MustParse("9", "W").Value {
		t.Fatalf("mismatched value was overwritten: %v", v)
	}
	gotTotal := patched.Attrs["static_power_total"].Quantity.Value
	wantTotal := units.MustParse("49", "W").Value // 20 + 20 + 9
	if gotTotal != wantTotal {
		t.Fatalf("re-annotated total %v, want %v", gotTotal, wantTotal)
	}
	// The input tree is never mutated.
	if sys.Attrs["tdp"].Raw != "100" || sys.Attrs["static_power_total"].Quantity.Value != origTotal {
		t.Fatalf("Apply mutated its input: %+v", sys.Attrs)
	}
}

func TestMutationsCoverClasses(t *testing.T) {
	orig := fixture()["cpuT"]
	origHash := Fingerprint(orig)
	muts := Mutations(orig)
	classes := map[string]int{}
	for _, m := range muts {
		classes[m.Class]++
		if Fingerprint(m.Comp) == origHash {
			t.Errorf("mutation %s is a fixed point of the descriptor", m.Name)
		}
	}
	want := []string{"attr-edit", "attr-edit-nested", "attr-add", "attr-remove",
		"element-add", "element-remove", "rename", "reorder"}
	for _, c := range want {
		if classes[c] == 0 {
			t.Errorf("mutation class %s missing; got %v", c, classes)
		}
	}
	if classes["attr-edit"] != 2 {
		t.Errorf("attr-edit count %d, want 2 (frequency + static_power)", classes["attr-edit"])
	}
	if Fingerprint(orig) != origHash {
		t.Fatal("Mutations mutated its input descriptor")
	}
}

// TestAnalyzeMutationClasses pins the outcome contract the
// differential battery relies on: attr-edit mutations ride the patch
// path, every structural class falls back to full resolution.
func TestAnalyzeMutationClasses(t *testing.T) {
	old := captureFixture(t, fixture())
	for _, mut := range Mutations(fixture()["cpuT"]) {
		descs := fixture()
		descs["cpuT"] = mut.Comp
		an := Analyze(old, captureFixture(t, descs), nil)
		if mut.Class == "attr-edit" {
			if an.Outcome != Patchable {
				t.Errorf("%s: outcome %v reason %q, want Patchable", mut.Name, an.Outcome, an.Reason)
			}
		} else if an.Outcome != Fallback {
			t.Errorf("%s: outcome %v, want Fallback", mut.Name, an.Outcome)
		}
	}
}

// TestApplyPairMatchesReference pins the production patch path
// (ApplyRT, then SyncTree over its result, as the serving layer runs
// them) to the reference one: the synced tree must render canonically
// identical to Apply's, and the patched runtime model must equal
// rtmodel.Build over that tree — the differential battery checks this
// end to end, this test localizes a divergence to the pair logic.
func TestApplyPairMatchesReference(t *testing.T) {
	sys := model.New("system")
	sys.ID = "srv"
	sys.SetAttr("tdp", model.Attr{Raw: "100"})
	for i := 0; i < 3; i++ {
		c := model.New("cpu")
		c.ID = fmt.Sprintf("c%d", i)
		c.Type = "cpuT"
		c.SetQuantity("static_power", units.MustParse("15", "W"))
		c.SetQuantity("max_bandwidth", units.MustParse("10", "GB/s"))
		core := model.New("core")
		core.ID = fmt.Sprintf("k%d", i)
		c.Children = append(c.Children, core)
		sys.Children = append(sys.Children, c)
	}
	// c2 diverged from the inherited value; the patch must skip it at
	// both levels.
	sys.Children[2].SetQuantity("static_power", units.MustParse("9", "W"))
	ic := model.New("interconnect")
	ic.ID = "bus"
	ic.SetAttr("head", model.Attr{Raw: "c0"})
	ic.SetAttr("tail", model.Attr{Raw: "c1"})
	chn := model.New("channel")
	chn.Name = "ch0"
	chn.SetQuantity("max_bandwidth", units.MustParse("40", "GB/s"))
	ic.Children = append(ic.Children, chn)
	sys.Children = append(sys.Children, ic)
	rules := analysis.DefaultRules()
	analysis.Annotate(sys, rules)
	analysis.DowngradeBandwidth(sys)
	rt := rtmodel.Build(sys)

	plan := Plan{
		Patches: []Patch{
			{Type: "cpuT", Attr: "static_power", Old: "15 W",
				New: model.Attr{Raw: "20", Quantity: units.MustParse("20", "W"), HasQuantity: true}},
			{Type: "cpuT", Attr: "max_bandwidth", Old: "10 GB/s",
				New: model.Attr{Raw: "30", Quantity: units.MustParse("30", "GB/s"), HasQuantity: true}},
			{Type: "srv", Attr: "tdp", Old: "100", New: model.Attr{Raw: "120"}},
		},
		NeedAnnotate:  true,
		NeedDowngrade: true,
	}
	refTree, _, refN := Apply(sys, "srv", plan, nil)
	refRT := rtmodel.Build(refTree)

	pairRT, rn := ApplyRT(rt, "srv", plan, nil)
	pairTree, _, n := SyncTree(sys, pairRT, "srv", plan, nil)
	if n != refN || rn != refN {
		t.Fatalf("patch counts: pair tree %d, pair rt %d, reference %d", n, rn, refN)
	}
	if Fingerprint(pairTree) != Fingerprint(refTree) {
		t.Fatal("SyncTree tree renders differently from Apply's")
	}
	if !rtmodel.Equal(pairRT, refRT) {
		t.Fatal("ApplyRT runtime model diverges from Build(Apply(...))")
	}
	if !rtmodel.Equal(rt, rtmodel.Build(sys)) {
		t.Fatal("ApplyRT mutated its input runtime model")
	}
	if Fingerprint(sys) == Fingerprint(pairTree) {
		t.Fatal("plan was a no-op; the comparison proves nothing")
	}
}
