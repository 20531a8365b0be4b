package model

import (
	"reflect"
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
