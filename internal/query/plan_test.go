package query

import (
	"fmt"
	"strings"
	"testing"

	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// diamondSession builds a model where the same core elements are
// reachable through several "//"-axis ancestors — the shape that used
// to shift positional indexing before dedupe ran first.
func diamondSession() *Session {
	sys := model.New("system")
	sys.ID = "d"
	node := model.New("node")
	node.ID = "n"
	cpu := model.New("cpu")
	cpu.ID = "p"
	for i := 0; i < 2; i++ {
		core := model.New("core")
		core.ID = fmt.Sprintf("c%d", i)
		cpu.Children = append(cpu.Children, core)
	}
	node.Children = append(node.Children, cpu)
	sys.Children = append(sys.Children, node)
	return NewSession(rtmodel.Build(sys))
}

// TestSelectIndexAfterDedupe is the regression test for the positional
// predicate semantics: `//*//core` reaches each core once per ancestor
// (node and cpu), so before the fix the raw match list was
// [c0 c1 c0 c1] and [2] returned the duplicate c0. Dedupe must run
// first: [N] counts distinct elements.
func TestSelectIndexAfterDedupe(t *testing.T) {
	s := diamondSession()
	for sel, want := range map[string][]string{
		"//*//core[0]": {"c0"},
		"//*//core[1]": {"c1"},
		"//*//core[2]": nil, // only two distinct cores exist
		"//*//core[3]": nil,
		"//*//core":    {"c0", "c1"},
	} {
		got, err := s.Select(sel)
		if err != nil {
			t.Fatalf("Select(%q): %v", sel, err)
		}
		if fmt.Sprint(ids(got)) != fmt.Sprint(want) {
			t.Errorf("%q = %v, want %v", sel, ids(got), want)
		}
	}
}

// comparisonSession builds one element with a numeric attribute, a
// non-numeric attribute, and (implicitly) a missing one.
func comparisonSession() *Session {
	sys := model.New("system")
	sys.ID = "s"
	d := model.New("device")
	d.ID = "dev"
	d.SetQuantity("num", units.Quantity{Value: 10})
	d.SetAttr("label", model.Attr{Raw: "abc"})
	sys.Children = append(sys.Children, d)
	return NewSession(rtmodel.Build(sys))
}

// TestSelectComparisonSemantics locks in the documented predicate
// semantics: ordered operators are defined only over numbers (either
// side non-numeric → false, never an error), equality falls back to
// exact string comparison, and a missing attribute matches only "!=".
func TestSelectComparisonSemantics(t *testing.T) {
	s := comparisonSession()
	cases := []struct {
		pred  string
		match bool
	}{
		// Numeric attribute vs numeric literal.
		{"num=10", true}, {"num!=10", false},
		{"num>5", true}, {"num<5", false},
		{"num>=10", true}, {"num<=10", true},
		{"num>10", false}, {"num<10", false},
		// Numeric attribute vs non-numeric literal: ordered → false.
		{"num>abc", false}, {"num<abc", false},
		{"num>=abc", false}, {"num<=abc", false},
		{"num=abc", false}, {"num!=abc", true},
		// Non-numeric attribute: ordered operators are always false.
		{"label<zzz", false}, {"label>a", false},
		{"label>=abc", false}, {"label<=abc", false},
		{"label=abc", true}, {"label!=abc", false}, {"label!=xyz", true},
		// Missing attribute: only "!=" matches.
		{"ghost=x", false}, {"ghost!=x", true},
		{"ghost<5", false}, {"ghost>5", false},
		{"ghost>=0", false}, {"ghost<=0", false},
	}
	for _, tc := range cases {
		sel := "//device[" + tc.pred + "]"
		got, err := s.Select(sel)
		if err != nil {
			t.Fatalf("Select(%q): %v", sel, err)
		}
		if matched := len(got) == 1; matched != tc.match {
			t.Errorf("%q matched=%v, want %v", sel, matched, tc.match)
		}
	}
}

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	a1, err := c.Get("//a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("//b"); err != nil {
		t.Fatal(err)
	}
	if a2, _ := c.Get("//a"); a2 != a1 {
		t.Fatal("cache hit returned a different plan")
	}
	// "//b" is now LRU; inserting "//c" evicts it.
	if _, err := c.Get("//c"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if a3, _ := c.Get("//a"); a3 != a1 {
		t.Fatal("recently-used plan was evicted")
	}
	// Parse errors are returned, never cached.
	if _, err := c.Get("//["); err == nil {
		t.Fatal("bad selector compiled")
	}
	if c.Len() != 2 {
		t.Fatalf("error polluted the cache: Len = %d", c.Len())
	}
	c.SetCapacity(1)
	if c.Len() != 1 {
		t.Fatalf("SetCapacity(1) left %d plans", c.Len())
	}
	c.SetCapacity(0)
	if c.Len() != 0 {
		t.Fatal("SetCapacity(0) kept plans resident")
	}
	if _, err := c.Get("//a"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache stored a plan")
	}
}

// TestPlanCacheExpr checks the compiled-expression side of the cache:
// a hit returns the resident node, a parse error is returned but never
// cached, an expression and a selector with the same text are distinct
// entries, and both kinds share the one capacity.
func TestPlanCacheExpr(t *testing.T) {
	c := NewPlanCache(2)
	hits, misses := mExprCacheHits.Value(), mExprCacheMisses.Value()
	n1, err := c.Expr("num_cores() >= 4")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := c.Expr("num_cores() >= 4")
	if err != nil {
		t.Fatal(err)
	}
	if n1.String() != n2.String() || c.Len() != 1 {
		t.Fatalf("repeated expression: %s / %s, Len %d", n1, n2, c.Len())
	}
	if mExprCacheHits.Value() != hits+1 || mExprCacheMisses.Value() != misses+1 {
		t.Fatalf("expr cache counters: hits +%d, misses +%d; want +1, +1",
			mExprCacheHits.Value()-hits, mExprCacheMisses.Value()-misses)
	}
	if _, err := c.Expr("num_cores("); err == nil {
		t.Fatal("bad expression compiled")
	}
	if c.Len() != 1 {
		t.Fatalf("parse error polluted the cache: Len = %d", c.Len())
	}
	// Same text as a selector: a separate entry of the other kind.
	if _, err := c.Get("core"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Expr("core"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want the capacity 2 shared by both kinds", c.Len())
	}
	if _, err := c.Get("core"); err != nil {
		t.Fatalf("selector entry answered as an expression: %v", err)
	}
	c.SetCapacity(0)
	if _, err := c.Expr("1 + 1"); err != nil || c.Len() != 0 {
		t.Fatalf("disabled cache: err %v, Len %d", err, c.Len())
	}
	// The process-wide cache serves EvalExpr.
	if v, err := EvalExpr("min(2, 3) + 1", nil); err != nil || v.Num != 3 {
		t.Fatalf("EvalExpr = %v, %v; want 3", v, err)
	}
	if _, err := EvalExpr("min(", nil); err == nil {
		t.Fatal("EvalExpr compiled a bad expression")
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(8)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				sel := fmt.Sprintf("//k%d", (g+i)%12)
				if _, err := c.Get(sel); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Len() > 8 {
		t.Fatalf("cache exceeded its bound: %d", c.Len())
	}
}

func TestIndexesBuildOnce(t *testing.T) {
	s := NewSession(buildModel())
	if s.idx != nil {
		t.Fatal("indexes built eagerly without BuildIndexes")
	}
	s.BuildIndexes()
	first := s.idx
	if first == nil {
		t.Fatal("BuildIndexes did not build")
	}
	if _, err := s.Select("//core"); err != nil {
		t.Fatal(err)
	}
	s.BuildIndexes()
	if s.idx != first {
		t.Fatal("indexes rebuilt")
	}
}

func TestPlanDescribe(t *testing.T) {
	for sel, want := range map[string]string{
		"//cache[name=L3]":      "index:kind+name",
		"//device[id=gpu1]":     "index:id",
		"//core":                "index:kind",
		"//core[0]":             "index:kind",
		"//cpu[frequency>=2e9]": "index:kind-scan",
		"//cache[name=3]":       "index:kind-scan", // numeric value: attribute comparison
		"//*":                   "walk",
		"node/cpu":              "walk",
	} {
		p, err := Compile(sel)
		if err != nil {
			t.Fatalf("Compile(%q): %v", sel, err)
		}
		if desc := p.Describe(); !strings.Contains(desc, "strategy="+want) {
			t.Errorf("Describe(%q) = %q, want strategy %s", sel, desc, want)
		}
	}
}

// selectorCorpus is every selector shape the package understands —
// the tests' selectors, the serve-layer FuzzSelector seeds, and the
// index fast-path edges (root-kind, numeric identity values,
// duplicate-reach positional indexing).
var selectorCorpus = []string{
	// Basic axes.
	"node", "node/cpu", "node/cache", "//cache", "//core", "node//core",
	"//*", "*", "cpu", "//system", "//system[id=cl]",
	// Predicates.
	"//cache[name=L3]", "//device[type=Nvidia_K20c]", "//device[type=Other]",
	"//cpu[frequency>=3e9]", "//cpu[frequency<3e9]", "//cpu[frequency!=2e9]",
	"//device[role=worker]", "//device[role!=worker]",
	"//power_domain[enableSwitchOff=false]", "//node[id=n1]", "//node[id=ghost]",
	"//core[zzz!=foo]", "//core[zzz=foo]", "//cache[size=15728640]",
	"//cache[name=3]", "//*[name=L3]", "//device[id=gpu1]", "//installed",
	"//cpu[frequency>abc]", "//cache[size<=1e9]",
	// Positional.
	"node[1]/device", "node[5]", "//cpu[0]", "//core[3]", "//core[99]",
	"//*//core[0]", "//*//core[1]", "//*//core[2]", "//*//core",
	// FuzzSelector seeds (serve layer).
	"/system/device[type=gpu]", "/../..",
	// Multi-segment deep chains.
	"//node//cache[name=L3]", "//cpu//core", "node//cpu/cache",
}

// TestPlanWalkerDifferential runs the whole corpus through both the
// pure walker and the indexed plan on several models and requires
// byte-identical results — same elements, same order.
func TestPlanWalkerDifferential(t *testing.T) {
	sessions := map[string]*Session{
		"selector": selectorSession(),
		"gpu":      NewSession(buildModel()),
		"diamond":  diamondSession(),
		"compare":  comparisonSession(),
		"empty":    NewSession(&rtmodel.Model{}),
	}
	for name, s := range sessions {
		for _, sel := range selectorCorpus {
			p, err := Compile(sel)
			if err != nil {
				t.Fatalf("Compile(%q): %v", sel, err)
			}
			want := p.runWalker(s.Root())
			got, err := p.Run(s)
			if err != nil {
				t.Fatalf("%s: Run(%q): %v", name, sel, err)
			}
			if !sameElems(want, got) {
				t.Errorf("%s: %q diverged: walker %v, indexed %v",
					name, sel, ids(want), ids(got))
			}
		}
	}
}

func sameElems(a, b []Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].idx != b[i].idx || a[i].s != b[i].s {
			return false
		}
	}
	return true
}

// FuzzPlanDifferential feeds arbitrary selector strings through both
// execution strategies; any input that compiles must produce identical
// element sequences — the property that makes the index fast paths
// safe to serve.
func FuzzPlanDifferential(f *testing.F) {
	for _, sel := range selectorCorpus {
		f.Add(sel)
	}
	f.Add("//cache[")
	f.Add(strings.Repeat("/a", 64))
	f.Add("//core[name=]")
	s := NewSession(buildModel())
	f.Fuzz(func(t *testing.T, sel string) {
		p, err := Compile(sel)
		if err != nil {
			return
		}
		want := p.runWalker(s.Root())
		got, err := p.Run(s)
		if err != nil {
			t.Fatalf("Run(%q): %v", sel, err)
		}
		if !sameElems(want, got) {
			t.Fatalf("%q diverged: walker %v, indexed %v", sel, ids(want), ids(got))
		}
	})
}
