// Package model defines the typed in-memory object model for XPDL
// descriptors: the intermediate representation that the paper's
// processing tool builds after parsing (Section IV).
//
// Every XPDL element becomes a Component carrying its identity (the
// meta-model name= / instance id= / type= / extends= scheme of Section
// III-A), its typed attributes (quantities normalized via
// internal/units), and its structural children. Parameters, constants,
// constraints and ad-hoc properties are lifted into dedicated side
// structures because the resolution engine (internal/resolve) and the
// constraint checker treat them specially.
package model

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"xpdl/internal/ast"
	"xpdl/internal/units"
)

// Attr is one typed attribute value. Raw always holds the source text;
// when the attribute carries a known unit and a numeric value, Quantity
// holds the normalized form.
type Attr struct {
	Raw         string
	Unit        string // raw companion unit, if any
	Quantity    units.Quantity
	HasQuantity bool
	// Unknown marks the "?" placeholder to be filled by
	// microbenchmarking at deployment time.
	Unknown bool
}

// Float returns the raw value parsed as float64 via the quantity when
// present, else NaN-free zero with ok=false.
func (a Attr) Float() (float64, bool) {
	if a.HasQuantity {
		return a.Quantity.Value, true
	}
	return 0, false
}

// Param is a formal parameter of a meta-model (Listing 8).
type Param struct {
	Name         string
	Type         string
	Configurable bool
	Range        []string // legal values, if restricted
	Value        string   // bound value; empty if unbound
	Unit         string   // unit of the bound value, if any
	Pos          ast.Pos
}

// Bound reports whether the parameter has a value.
func (p *Param) Bound() bool { return p.Value != "" }

// Const is a named constant of a meta-model (Listing 8).
type Const struct {
	Name  string
	Type  string
	Value string
	Unit  string
	Pos   ast.Pos
}

// Constraint is a boolean expression over params/consts that every
// concrete configuration must satisfy.
type Constraint struct {
	Expr string
	Pos  ast.Pos
}

// Property is one free-form key-value property from a <properties>
// block — the PDL-inherited escape mechanism.
type Property struct {
	Name  string
	Attrs map[string]string
	Pos   ast.Pos
}

// Value returns the property's "value" attribute (the common case).
func (p Property) Value() string { return p.Attrs["value"] }

// Component is one XPDL model element.
type Component struct {
	Kind    string // element kind: cpu, cache, system, group, ...
	Name    string // meta-model name (Section III-A)
	ID      string // instance identifier
	Type    string // meta-model reference
	Extends []string

	// Group replication (Listing 1): Prefix+Quantity expand to
	// Prefix0..PrefixN-1 member ids at resolution time.
	Prefix   string
	Quantity string // count expression; may reference params

	Attrs       map[string]Attr
	Params      []*Param
	Consts      []*Const
	Constraints []Constraint
	Properties  []Property

	Children []*Component
	Pos      ast.Pos

	// shared marks Attrs as shared with other components (see Freeze):
	// the map is read-only, and the first SetAttr or DeleteAttr on this
	// component copies it.
	shared bool
}

// New creates an empty component of the given kind.
func New(kind string) *Component {
	return &Component{Kind: kind, Attrs: map[string]Attr{}}
}

// Ident returns the component's identifier: the instance id when
// present, else the meta-model name.
func (c *Component) Ident() string {
	if c.ID != "" {
		return c.ID
	}
	return c.Name
}

// IsMeta reports whether the component is a meta-model (named type
// definition) rather than a concrete instance.
func (c *Component) IsMeta() bool { return c.Name != "" && c.ID == "" }

// Attr returns the named attribute and whether it exists.
func (c *Component) Attr(name string) (Attr, bool) {
	a, ok := c.Attrs[name]
	return a, ok
}

// AttrRaw returns the raw string of the named attribute or "".
func (c *Component) AttrRaw(name string) string {
	return c.Attrs[name].Raw
}

// SetAttr stores an attribute, first copying a shared map.
func (c *Component) SetAttr(name string, a Attr) {
	if c.shared || c.Attrs == nil {
		c.OwnAttrs()
	}
	c.Attrs[name] = a
}

// DeleteAttr removes an attribute, first copying a shared map.
func (c *Component) DeleteAttr(name string) {
	if _, ok := c.Attrs[name]; !ok {
		return
	}
	if c.shared {
		c.OwnAttrs()
	}
	delete(c.Attrs, name)
}

// OwnAttrs gives c a private copy of its attribute map, with room for
// one more entry, and clears the shared mark, so c may write to Attrs
// directly. Code that copies a Component struct and then writes to the
// copy's attributes calls it first: the struct copy carries the shared
// map and its mark.
func (c *Component) OwnAttrs() {
	m := make(map[string]Attr, len(c.Attrs)+1)
	maps.Copy(m, c.Attrs)
	c.Attrs, c.shared = m, false
}

// Frozen reports whether c's attribute map is shared copy-on-write
// (see Freeze).
func (c *Component) Frozen() bool { return c.shared }

// Freeze marks every attribute map in c's subtree as shared. From then
// on Clone hands a node's map to the copy instead of copying it, and
// the first write through SetAttr or DeleteAttr, on the source or on a
// copy, copies the map for the writer alone. Nothing else may write to
// a frozen node's Attrs.
func (c *Component) Freeze() {
	c.Walk(func(x *Component) bool {
		x.shared = true
		return true
	})
}

// SetQuantity stores a normalized quantity attribute.
func (c *Component) SetQuantity(name string, q units.Quantity) {
	c.SetAttr(name, Attr{Raw: fmt.Sprintf("%g", q.Value), Quantity: q, HasQuantity: true})
}

// QuantityAttr returns the normalized quantity of the named attribute.
func (c *Component) QuantityAttr(name string) (units.Quantity, bool) {
	a, ok := c.Attrs[name]
	if !ok || !a.HasQuantity {
		return units.Quantity{}, false
	}
	return a.Quantity, true
}

// Param returns the named parameter, or nil.
func (c *Component) Param(name string) *Param {
	for _, p := range c.Params {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// Const returns the named constant, or nil.
func (c *Component) Const(name string) *Const {
	for _, k := range c.Consts {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// Property returns the named free-form property, or nil.
func (c *Component) Property(name string) *Property {
	for i := range c.Properties {
		if c.Properties[i].Name == name {
			return &c.Properties[i]
		}
	}
	return nil
}

// ChildrenKind returns all direct children of the given kind.
func (c *Component) ChildrenKind(kind string) []*Component {
	var out []*Component
	for _, ch := range c.Children {
		if ch.Kind == kind {
			out = append(out, ch)
		}
	}
	return out
}

// FirstChildKind returns the first direct child of the given kind, or
// nil.
func (c *Component) FirstChildKind(kind string) *Component {
	for _, ch := range c.Children {
		if ch.Kind == kind {
			return ch
		}
	}
	return nil
}

// Walk visits c and all descendants in document order; returning false
// from fn prunes the subtree.
func (c *Component) Walk(fn func(*Component) bool) {
	if !fn(c) {
		return
	}
	for _, ch := range c.Children {
		ch.Walk(fn)
	}
}

// FindByID returns the first component in the subtree whose instance id
// or meta name equals ident, or nil.
func (c *Component) FindByID(ident string) *Component {
	var found *Component
	c.Walk(func(x *Component) bool {
		if found != nil {
			return false
		}
		if x.ID == ident || (x.ID == "" && x.Name == ident) {
			found = x
			return false
		}
		return true
	})
	return found
}

// CountKind returns the number of components of the given kind in the
// subtree (including c itself).
func (c *Component) CountKind(kind string) int {
	n := 0
	c.Walk(func(x *Component) bool {
		if x.Kind == kind {
			n++
		}
		return true
	})
	return n
}

// Clone returns a copy of the component subtree. The copied components
// live in one slab and their child pointers in another, so a copy costs
// two allocations plus the per-node attribute, parameter and property
// storage. Each node's Children is a capped subslice of the child slab,
// so appending to one node's children reallocates rather than
// overwriting a neighbour's.
//
// A frozen node's Attrs map (see Freeze) is not copied: the copy holds
// the same map and is frozen too, and whichever of them writes first
// through SetAttr or DeleteAttr gets a private map. Every other map and
// slice, and the Attrs of every unfrozen node, is copied, so writes to
// the copy never reach the source and the reverse. Clone only reads its
// source, so several goroutines may clone one tree at once.
//
// Nil-ness of every slice and map is preserved exactly, so a clone is
// reflect.DeepEqual to its original and serializes identically — sweep
// differential tests compare rebound clones against freshly resolved
// trees byte for byte.
func (c *Component) Clone() *Component {
	nodes, edges := c.size()
	cl := cloner{nodes: make([]Component, nodes), kids: make([]*Component, edges)}
	return cl.clone(c)
}

// size counts the subtree's components and child edges.
func (c *Component) size() (nodes, edges int) {
	nodes, edges = 1, len(c.Children)
	for _, ch := range c.Children {
		n, e := ch.size()
		nodes += n
		edges += e
	}
	return nodes, edges
}

// cloner hands out the unused tails of a Clone's two slabs.
type cloner struct {
	nodes []Component
	kids  []*Component
}

func (cl *cloner) clone(c *Component) *Component {
	cp := &cl.nodes[0]
	cl.nodes = cl.nodes[1:]
	*cp = Component{
		Kind: c.Kind, Name: c.Name, ID: c.ID, Type: c.Type,
		Extends: slices.Clone(c.Extends),
		Prefix:  c.Prefix, Quantity: c.Quantity,
		Attrs:       c.Attrs,
		Constraints: slices.Clone(c.Constraints),
		Pos:         c.Pos,
		shared:      c.shared,
	}
	if !c.shared {
		cp.Attrs = maps.Clone(c.Attrs)
	}
	if c.Params != nil {
		cp.Params = make([]*Param, len(c.Params))
		for i, p := range c.Params {
			q := *p
			q.Range = slices.Clone(p.Range)
			cp.Params[i] = &q
		}
	}
	if c.Consts != nil {
		cp.Consts = make([]*Const, len(c.Consts))
		for i, k := range c.Consts {
			q := *k
			cp.Consts[i] = &q
		}
	}
	if c.Properties != nil {
		cp.Properties = make([]Property, len(c.Properties))
		for i, pr := range c.Properties {
			cp.Properties[i] = Property{Name: pr.Name, Attrs: maps.Clone(pr.Attrs), Pos: pr.Pos}
		}
	}
	if c.Children != nil {
		n := len(c.Children)
		kids := cl.kids[:n:n]
		cl.kids = cl.kids[n:]
		for i, ch := range c.Children {
			kids[i] = cl.clone(ch)
		}
		cp.Children = kids
	}
	return cp
}

// String renders a compact one-line summary for diagnostics.
func (c *Component) String() string {
	var b strings.Builder
	b.WriteString("<")
	b.WriteString(c.Kind)
	if c.Name != "" {
		fmt.Fprintf(&b, " name=%q", c.Name)
	}
	if c.ID != "" {
		fmt.Fprintf(&b, " id=%q", c.ID)
	}
	if c.Type != "" {
		fmt.Fprintf(&b, " type=%q", c.Type)
	}
	fmt.Fprintf(&b, " children=%d>", len(c.Children))
	return b.String()
}

// Tree renders an indented multi-line dump of the subtree, used by the
// query CLI and in golden tests.
func (c *Component) Tree() string {
	var b strings.Builder
	var rec func(x *Component, depth int)
	rec = func(x *Component, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(x.Kind)
		if id := x.Ident(); id != "" {
			b.WriteString(" " + id)
		}
		if x.Type != "" {
			b.WriteString(" : " + x.Type)
		}
		b.WriteString("\n")
		for _, ch := range x.Children {
			rec(ch, depth+1)
		}
	}
	rec(c, 0)
	return b.String()
}
