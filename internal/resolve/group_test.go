package resolve

import (
	"testing"

	"xpdl/internal/model"
)

// TestGroupMembersCopyOnWrite resolves XScluster, whose nodes, cores
// and memory modules are group members sharing attribute maps, then
// writes to one member's cpu and to one nested core and deletes one
// memory attribute. Each write must land on that node alone.
func TestGroupMembersCopyOnWrite(t *testing.T) {
	sys, err := New(modelsRepo(t)).ResolveSystem("XScluster")
	if err != nil {
		t.Fatal(err)
	}
	n1 := sys.FindByID("n1")
	if n1 == nil {
		t.Fatal("member n1 missing")
	}
	cpu := n1.FindByID("PE0")
	var core, mem *model.Component
	n1.Walk(func(c *model.Component) bool {
		if core == nil && c.Kind == "core" && c.Frozen() {
			core = c
		}
		if mem == nil && c.Kind == "memory" && c.Frozen() && len(c.Attrs) > 0 {
			mem = c
		}
		return true
	})
	if cpu == nil || core == nil || mem == nil || !cpu.Frozen() {
		t.Fatalf("n1: cpu %v core %v memory %v, want frozen group members", cpu, core, mem)
	}
	var memAttr string
	for k := range mem.Attrs {
		memAttr = k
		break
	}
	memHolders := countNodes(sys, func(c *model.Component) bool {
		_, ok := c.Attrs[memAttr]
		return c.Kind == "memory" && ok
	})

	cpu.SetAttr("leak_probe", model.Attr{Raw: "cpu"})
	core.SetAttr("frequency", model.Attr{Raw: "leak-probe"})
	mem.DeleteAttr(memAttr)

	for _, w := range []struct {
		what string
		node *model.Component
		hit  func(*model.Component) bool
	}{
		{"cpu SetAttr", cpu, func(c *model.Component) bool { _, ok := c.Attrs["leak_probe"]; return ok }},
		{"core SetAttr", core, func(c *model.Component) bool { return c.AttrRaw("frequency") == "leak-probe" }},
	} {
		if got := countNodes(sys, w.hit); got != 1 || !w.hit(w.node) {
			t.Errorf("%s: %d nodes changed, want only %s", w.what, got, w.node)
		}
	}
	got := countNodes(sys, func(c *model.Component) bool {
		_, ok := c.Attrs[memAttr]
		return c.Kind == "memory" && ok
	})
	if _, ok := mem.Attrs[memAttr]; ok || got != memHolders-1 {
		t.Errorf("memory DeleteAttr(%s): %d of %d holders left, want %d", memAttr, got, memHolders, memHolders-1)
	}
}

func countNodes(root *model.Component, match func(*model.Component) bool) int {
	n := 0
	root.Walk(func(c *model.Component) bool {
		if match(c) {
			n++
		}
		return true
	})
	return n
}
