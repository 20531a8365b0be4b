package model

import (
	"reflect"
	"sync"
	"testing"
)

// replicaSource builds a small subtree that carries every kind of
// per-node storage Clone copies: attributes, parameters with ranges,
// constants, constraints, properties and two levels of children.
func replicaSource() *Component {
	root := New("group")
	root.ID = "m0"
	root.Params = []*Param{{Name: "mode", Range: []string{"1", "2"}, Value: "2"}}
	root.Consts = []*Const{{Name: "sz", Value: "64", Unit: "KB"}}
	for _, id := range []string{"a", "b"} {
		cpu := New("cpu")
		cpu.ID = id
		cpu.Extends = []string{"Base"}
		cpu.SetAttr("frequency", Attr{Raw: "2"})
		cpu.Constraints = []Constraint{{Expr: "mode <= 2"}}
		cpu.Properties = []Property{{Name: "vendor", Attrs: map[string]string{"value": "acme"}}}
		for _, k := range []string{"core", "cache"} {
			cpu.Children = append(cpu.Children, New(k))
		}
		root.Children = append(root.Children, cpu)
	}
	return root
}

// TestCloneReplicasIndependent mutates one of several clones through
// every piece of per-node storage and checks that its siblings and the
// source are unchanged.
func TestCloneReplicasIndependent(t *testing.T) {
	src := replicaSource()
	replicas := []*Component{src.Clone(), src.Clone(), src.Clone()}
	for i, r := range replicas {
		if !reflect.DeepEqual(r, src) {
			t.Fatalf("replica %d differs from its source", i)
		}
	}

	m := replicas[1]
	m.SetAttr("role", Attr{Raw: "worker"})
	m.Children[0].SetAttr("frequency", Attr{Raw: "3"})
	m.Params[0].Range[0] = "4"
	m.Params[0].Value = "4"
	m.Consts[0].Value = "128"
	m.Children[0].Extends[0] = "Other"
	m.Children[0].Constraints[0].Expr = "false"
	m.Children[0].Properties[0].Attrs["value"] = "other"
	m.Children[0].Children = append(m.Children[0].Children, New("memory"))
	m.Children[0].Children[0].Kind = "changed"
	m.Children = append(m.Children, New("device"))

	want := replicaSource()
	for _, c := range []*Component{src, replicas[0], replicas[2]} {
		if !reflect.DeepEqual(c, want) {
			t.Fatalf("mutating one replica changed another tree:\n%s", c.Tree())
		}
	}
	if got := len(m.Children[0].Children); got != 3 {
		t.Fatalf("appended child lost: %d children", got)
	}
}

// TestCloneChildSlabsCapped checks that every node's Children in a clone
// is a capped subslice (len == cap), so an append on one node cannot
// write into the child pointers of the node laid out after it.
func TestCloneChildSlabsCapped(t *testing.T) {
	cp := replicaSource().Clone()
	cp.Walk(func(c *Component) bool {
		if len(c.Children) != cap(c.Children) {
			t.Errorf("%s: children len %d, cap %d", c, len(c.Children), cap(c.Children))
		}
		return true
	})
	first, second := cp.Children[0], cp.Children[1]
	before := second.Children[0]
	first.Children = append(first.Children, New("memory"))
	if second.Children[0] != before || len(second.Children) != 2 {
		t.Fatal("append on one node overwrote its neighbour's children")
	}
}

// TestCloneKeepsNilVersusEmpty checks that Clone keeps every slice and
// map nil where the source's is nil and empty where it is empty.
func TestCloneKeepsNilVersusEmpty(t *testing.T) {
	empty := &Component{
		Kind:        "cpu",
		Extends:     []string{},
		Attrs:       map[string]Attr{},
		Params:      []*Param{{Name: "p", Range: []string{}}, {Name: "q"}},
		Consts:      []*Const{},
		Constraints: []Constraint{},
		Properties:  []Property{{Name: "e", Attrs: map[string]string{}}, {Name: "n"}},
		Children:    []*Component{{Kind: "core"}, {Kind: "cache", Children: []*Component{}, Params: []*Param{}}},
	}
	for name, src := range map[string]*Component{
		"nil":   {Kind: "cpu"},
		"empty": empty,
	} {
		cp := src.Clone()
		if !reflect.DeepEqual(cp, src) {
			t.Errorf("%s: clone is not DeepEqual to its source", name)
		}
	}
	cp := empty.Clone()
	if cp.Extends == nil || cp.Attrs == nil || cp.Consts == nil || cp.Constraints == nil ||
		cp.Params[0].Range == nil || cp.Params[1].Range != nil ||
		cp.Properties[0].Attrs == nil || cp.Properties[1].Attrs != nil ||
		cp.Children[0].Children != nil || cp.Children[1].Children == nil ||
		cp.Children[1].Params == nil || cp.Children[0].Params != nil {
		t.Fatal("clone changed the nil-ness of a slice or map")
	}
}

// attrsPtr identifies an attribute map for sharing checks.
func attrsPtr(m map[string]Attr) uintptr {
	return uintptr(reflect.ValueOf(m).UnsafePointer())
}

// TestCloneUnfrozenSharesNoMap checks that cloning a tree nobody froze
// still copies every node's attribute and property maps.
func TestCloneUnfrozenSharesNoMap(t *testing.T) {
	src := replicaSource()
	src.Properties = []Property{{Name: "p", Attrs: map[string]string{"value": "1"}}}
	cp := src.Clone()
	var srcNodes, cpNodes []*Component
	src.Walk(func(c *Component) bool { srcNodes = append(srcNodes, c); return true })
	cp.Walk(func(c *Component) bool { cpNodes = append(cpNodes, c); return true })
	seen := map[uintptr]bool{}
	for _, c := range srcNodes {
		seen[attrsPtr(c.Attrs)] = true
		for _, pr := range c.Properties {
			seen[uintptr(reflect.ValueOf(pr.Attrs).UnsafePointer())] = true
		}
	}
	for _, c := range cpNodes {
		if c.Frozen() {
			t.Errorf("%s: clone of an unfrozen tree is frozen", c)
		}
		if seen[attrsPtr(c.Attrs)] {
			t.Errorf("%s: clone shares its attribute map with the source", c)
		}
		for _, pr := range c.Properties {
			if seen[uintptr(reflect.ValueOf(pr.Attrs).UnsafePointer())] {
				t.Errorf("%s: clone shares property %s's map with the source", c, pr.Name)
			}
		}
	}
}

// TestFrozenCloneCopyOnWrite checks that a frozen tree and its clones
// share each node's attribute map, and that SetAttr or DeleteAttr on
// any one of them, source or copy, leaves all the others unchanged.
func TestFrozenCloneCopyOnWrite(t *testing.T) {
	writes := map[string]func(c *Component){
		"set":    func(c *Component) { c.SetAttr("frequency", Attr{Raw: "3"}) },
		"add":    func(c *Component) { c.SetAttr("role", Attr{Raw: "worker"}) },
		"delete": func(c *Component) { c.DeleteAttr("frequency") },
	}
	for name, write := range writes {
		for _, writer := range []int{0, 1} { // 0 writes to the source, 1 to a copy
			src := replicaSource()
			src.Freeze()
			trees := []*Component{src, src.Clone(), src.Clone()}
			for i, tr := range trees[1:] {
				if attrsPtr(tr.Children[0].Attrs) != attrsPtr(src.Children[0].Attrs) || !tr.Children[0].Frozen() {
					t.Fatalf("%s: copy %d does not share the frozen map", name, i+1)
				}
			}
			w := trees[writer].Children[0]
			write(w)
			if w.Frozen() {
				t.Errorf("%s: writer still frozen after its first write", name)
			}
			if attrsPtr(w.Attrs) == attrsPtr(trees[2].Children[0].Attrs) {
				t.Errorf("%s: writer still shares its map", name)
			}
			want := replicaSource()
			want.Freeze()
			for i, tr := range trees {
				if i == writer {
					continue
				}
				if !reflect.DeepEqual(tr, want) {
					t.Errorf("%s by tree %d changed tree %d: %v", name, writer, i, tr.Children[0].Attrs)
				}
			}
			// The writer's sibling keeps sharing: a write copies only the
			// node written to.
			if !trees[writer].Children[1].Frozen() {
				t.Errorf("%s: an unwritten node lost its shared mark", name)
			}
		}
	}
}

// TestDeleteAttrMissingKeepsSharing checks that deleting an absent
// attribute neither copies a frozen map nor clears its mark.
func TestDeleteAttrMissingKeepsSharing(t *testing.T) {
	src := replicaSource()
	src.Freeze()
	cp := src.Clone()
	cp.DeleteAttr("absent")
	if !cp.Frozen() || attrsPtr(cp.Attrs) != attrsPtr(src.Attrs) {
		t.Fatal("deleting an absent attribute copied the shared map")
	}
}

// TestOwnAttrsUnshares checks that OwnAttrs on a struct copy of a frozen
// node gives the copy a private map the source never sees.
func TestOwnAttrsUnshares(t *testing.T) {
	src := replicaSource()
	src.Freeze()
	n := *src.Children[0]
	n.OwnAttrs()
	if n.Frozen() || attrsPtr(n.Attrs) == attrsPtr(src.Children[0].Attrs) {
		t.Fatal("OwnAttrs left the copy sharing the source's map")
	}
	n.Attrs["frequency"] = Attr{Raw: "9"}
	if got := src.Children[0].AttrRaw("frequency"); got != "2" {
		t.Fatalf("write through an owned map reached the source: frequency %q", got)
	}
}

// TestFrozenCloneConcurrent clones one frozen tree from several
// goroutines, each writing to its own copy, as sweep workers do; run
// under -race it checks that neither Clone nor a copy's first write
// touches the shared source.
func TestFrozenCloneConcurrent(t *testing.T) {
	src := replicaSource()
	src.Freeze()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				cp := src.Clone()
				cp.Children[0].SetAttr("frequency", Attr{Raw: "3"})
				cp.Children[1].DeleteAttr("frequency")
				if cp.Children[0].AttrRaw("frequency") != "3" {
					t.Error("write to a copy lost")
					return
				}
			}
		}()
	}
	wg.Wait()
	want := replicaSource()
	want.Freeze()
	if !reflect.DeepEqual(src, want) {
		t.Fatal("concurrent copies changed the source")
	}
}
