// Package rtmodel implements the light-weight run-time data structure
// of Section IV: the XPDL processing tool composes and analyzes the full
// model, then writes a compact, string-interned binary representation to
// a file; application startup code loads that file via the runtime query
// API (internal/query) to introspect its execution platform.
//
// The format is designed for cheap, allocation-light loading: one string
// table plus flat node records with child indices. Nodes are stored in
// preorder, the root at index 0.
package rtmodel

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"xpdl/internal/model"
	"xpdl/internal/units"
)

// Magic and version identify the file format.
const (
	Magic   = "XPDLRT"
	Version = 1
)

// AttrFlags mark properties of a stored attribute.
type AttrFlags uint8

// Attribute flags.
const (
	FlagHasValue AttrFlags = 1 << iota // numeric value present
	FlagUnknown                        // "?" placeholder survived filtering
)

// Attr is one attribute of a runtime node.
type Attr struct {
	Name  string
	Raw   string
	Unit  string
	Value float64 // normalized to base units when HasValue
	Dim   units.Dimension
	Flags AttrFlags
}

// HasValue reports whether the attribute carries a normalized numeric
// value.
func (a Attr) HasValue() bool { return a.Flags&FlagHasValue != 0 }

// Prop is one free-form key-value pair from a <properties> block.
type Prop struct {
	Name string
	KVs  [][2]string // attribute pairs, sorted by key
}

// Get returns the value for a property attribute key.
func (p Prop) Get(key string) (string, bool) {
	for _, kv := range p.KVs {
		if kv[0] == key {
			return kv[1], true
		}
	}
	return "", false
}

// Node is one model element in the runtime representation.
type Node struct {
	Kind     string
	Name     string
	ID       string
	Type     string
	Attrs    []Attr
	Props    []Prop
	Parent   int32 // -1 for the root
	Children []int32
}

// Ident returns the node identifier: ID if set, else Name.
func (n *Node) Ident() string {
	if n.ID != "" {
		return n.ID
	}
	return n.Name
}

// Attr returns the named attribute.
func (n *Node) Attr(name string) (Attr, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attr{}, false
}

// Model is the complete runtime model.
type Model struct {
	Nodes []Node
	// index maps identifiers to the first node carrying them.
	index map[string]int32
}

// Root returns the root node index (always 0 for non-empty models).
func (m *Model) Root() *Node {
	if len(m.Nodes) == 0 {
		return nil
	}
	return &m.Nodes[0]
}

// Node returns the node at index i.
func (m *Model) Node(i int32) *Node { return &m.Nodes[i] }

// Len returns the number of nodes.
func (m *Model) Len() int { return len(m.Nodes) }

// Lookup finds a node by identifier (first occurrence in preorder).
func (m *Model) Lookup(ident string) (*Node, bool) {
	if m.index == nil {
		m.buildIndex()
	}
	i, ok := m.index[ident]
	if !ok {
		return nil, false
	}
	return &m.Nodes[i], true
}

// LookupIndex finds a node's preorder index by identifier — the same
// map lookup as Lookup without the follow-up linear IndexOf scan that
// a caller holding only the *Node would need.
func (m *Model) LookupIndex(ident string) (int32, bool) {
	if m.index == nil {
		m.buildIndex()
	}
	i, ok := m.index[ident]
	return i, ok
}

func (m *Model) buildIndex() {
	m.index = make(map[string]int32, len(m.Nodes))
	for i := range m.Nodes {
		id := m.Nodes[i].Ident()
		if id == "" {
			continue
		}
		if _, dup := m.index[id]; !dup {
			m.index[id] = int32(i)
		}
	}
}

// IndexOf returns the index of a node obtained from this model.
func (m *Model) IndexOf(n *Node) int32 {
	for i := range m.Nodes {
		if &m.Nodes[i] == n {
			return int32(i)
		}
	}
	return -1
}

// Build converts a composed component tree into the runtime
// representation, in two walks over the tree: the first counts nodes,
// attributes and child edges, the second fills one Nodes array, one
// attribute slab and one child-index slab, each sized exactly.
//
// Every node's Attrs and Children is a capped subslice of its slab
// (slab[lo:hi:hi]), so len equals cap: an append to one node's slice
// reallocates and can never write into its neighbour's entries. Writing
// into a slice element in place still writes into the shared slab;
// code that patches a model whose slabs other models share (see Fork)
// must replace the node's slice, not write through it. Attributes are
// sorted by name; nodes with none keep nil slices.
func Build(root *model.Component) *Model {
	nodes, attrs, kids := count(root)
	b := builder{nodes: make([]Node, nodes), attrs: make([]Attr, attrs), kids: make([]int32, kids)}
	b.fill(root, -1)
	return &Model{Nodes: b.nodes}
}

// count returns the number of nodes, attributes and child edges in c's
// subtree.
func count(c *model.Component) (nodes, attrs, kids int) {
	nodes, attrs, kids = 1, len(c.Attrs), len(c.Children)
	for _, ch := range c.Children {
		n, a, k := count(ch)
		nodes, attrs, kids = nodes+n, attrs+a, kids+k
	}
	return nodes, attrs, kids
}

// builder carries Build's second walk: the node array, the index of the
// next node to fill, and the unfilled tails of the two slabs.
type builder struct {
	nodes []Node
	next  int32
	attrs []Attr
	kids  []int32
}

// fill writes c's subtree in preorder from the next free node on and
// returns c's index.
func (b *builder) fill(c *model.Component, parent int32) int32 {
	idx := b.next
	b.next++
	n := &b.nodes[idx]
	*n = Node{Kind: c.Kind, Name: c.Name, ID: c.ID, Type: c.Type, Parent: parent}
	if k := len(c.Attrs); k > 0 {
		n.Attrs, b.attrs = b.attrs[:k:k], b.attrs[k:]
		i := 0
		for name, a := range c.Attrs {
			n.Attrs[i] = AttrOf(name, a)
			i++
		}
		slices.SortFunc(n.Attrs, func(x, y Attr) int { return strings.Compare(x.Name, y.Name) })
	}
	for _, p := range c.Properties {
		rp := Prop{Name: p.Name}
		for k, v := range p.Attrs {
			rp.KVs = append(rp.KVs, [2]string{k, v})
		}
		slices.SortFunc(rp.KVs, func(x, y [2]string) int { return strings.Compare(x[0], y[0]) })
		n.Props = append(n.Props, rp)
	}
	if k := len(c.Children); k > 0 {
		n.Children, b.kids = b.kids[:k:k], b.kids[k:]
		for i, ch := range c.Children {
			n.Children[i] = b.fill(ch, idx)
		}
	}
	return idx
}

// Fork returns a copy of m for an attribute patch: it owns its Nodes
// slice but shares every node's Attrs, Props and Children with m, and
// keeps m's identifier index. A patch may give a node new Attrs by
// replacing the slice, never by writing through it (m still reads the
// shared entries), and must not change any node's Kind, Name or ID,
// which the index rests on, or the tree's shape.
func (m *Model) Fork() *Model {
	return &Model{Nodes: slices.Clone(m.Nodes), index: m.index}
}

// AttrOf converts a descriptor attribute to its runtime form.
func AttrOf(name string, a model.Attr) Attr {
	ra := Attr{Name: name, Raw: a.Raw, Unit: a.Unit}
	if a.HasQuantity {
		ra.Value = a.Quantity.Value
		ra.Dim = a.Quantity.Dim
		ra.Flags |= FlagHasValue
	}
	if a.Unknown {
		ra.Flags |= FlagUnknown
	}
	return ra
}

// ---- Serialization ----

// putNode appends one node record to e — the only code that writes
// one. str writes each string field: Save passes a string-table
// reference, WriteCanonical the inline string. Everything else is the
// same in both encodings:
//
//	.xrt file  "XPDLRT" | uvarint version (1)
//	           uvarint nstrings | nstrings × (uvarint len, bytes)
//	           uvarint nnodes | nnodes × node     (str = uvarint index)
//	canonical  uvarint 6, "XPDLRT"
//	           uvarint nnodes | nnodes × node     (str = uvarint len, bytes)
//	node       str kind, str name, str id, str type
//	           varint parent                      (-1 for the root)
//	           uvarint nattrs | nattrs × (str name, str raw, str unit,
//	                                      uvarint dim, uvarint flags,
//	                                      8-byte little-endian float64 value)
//	           uvarint nprops | nprops × (str name,
//	                                      uvarint nkvs | nkvs × (str key, str value))
//	           uvarint nchildren | nchildren × uvarint child index
//
// Nodes are in preorder, so every parent index is below its child's.
// Varints are encoding/binary's, written by Enc and read by Dec.
func putNode(e *Enc, n *Node, str func(*Enc, string)) {
	str(e, n.Kind)
	str(e, n.Name)
	str(e, n.ID)
	str(e, n.Type)
	e.Varint(int64(n.Parent))
	e.Uvarint(uint64(len(n.Attrs)))
	for i := range n.Attrs {
		a := &n.Attrs[i]
		str(e, a.Name)
		str(e, a.Raw)
		str(e, a.Unit)
		e.Uvarint(uint64(a.Dim))
		e.Uvarint(uint64(a.Flags))
		e.F64(a.Value)
	}
	e.Uvarint(uint64(len(n.Props)))
	for i := range n.Props {
		p := &n.Props[i]
		str(e, p.Name)
		e.Uvarint(uint64(len(p.KVs)))
		for _, kv := range p.KVs {
			str(e, kv[0])
			str(e, kv[1])
		}
	}
	e.Uvarint(uint64(len(n.Children)))
	for _, c := range n.Children {
		e.Uvarint(uint64(c))
	}
}

// Save writes the model in the compact .xrt file format. The node
// records are encoded first, numbering each string at its first use,
// because the string table they index precedes them in the file.
func (m *Model) Save(out io.Writer) error {
	ids := make(map[string]uint64)
	var table []string
	ref := func(e *Enc, s string) {
		id, ok := ids[s]
		if !ok {
			id = uint64(len(table))
			ids[s] = id
			table = append(table, s)
		}
		e.Uvarint(id)
	}
	var nodes Enc
	nodes.Uvarint(uint64(len(m.Nodes)))
	for i := range m.Nodes {
		putNode(&nodes, &m.Nodes[i], ref)
	}
	head := Enc{Buf: []byte(Magic)}
	head.Uvarint(Version)
	head.Uvarint(uint64(len(table)))
	for _, s := range table {
		head.rawString(s)
	}
	if _, err := out.Write(head.Buf); err != nil {
		return err
	}
	_, err := out.Write(nodes.Buf)
	return err
}

// WriteCanonical writes a deterministic, injective rendering of the
// model's full content: every node record Save writes, in the same
// order, with the strings inline instead of interned, so it streams in
// one cheap walk. Content hashing (snapshot fingerprints) uses this:
// two models write equal canonical streams exactly when Equal reports
// them equal. Output goes out in chunks of at least 32 KiB — hashing
// 44k nodes one tiny Write at a time costs as much as a file save.
func (m *Model) WriteCanonical(out io.Writer) error {
	e := Enc{Buf: make([]byte, 0, 64<<10)}
	e.rawString(Magic)
	e.Uvarint(uint64(len(m.Nodes)))
	for i := range m.Nodes {
		putNode(&e, &m.Nodes[i], (*Enc).rawString)
		if len(e.Buf) >= 32<<10 {
			if _, err := out.Write(e.Buf); err != nil {
				return err
			}
			e.Buf = e.Buf[:0]
		}
	}
	_, err := out.Write(e.Buf)
	return err
}

// SaveFile writes the model to a file path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a model previously written by Save. A wrong magic or
// version is reported as such; any other malformed input fails with an
// error wrapping ErrWire.
func Load(in io.Reader) (*Model, error) {
	// io.Copy lets a bytes or strings Reader hand over its contents in
	// one write; io.ReadAll would grow its buffer in 1.25x steps.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, in); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	if len(b) < len(Magic) || string(b[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("rtmodel: bad magic %q", b[:min(len(b), len(Magic))])
	}
	d := NewDec(b[len(Magic):])
	if ver := d.Uvarint(); d.Err() == nil && ver != Version {
		return nil, fmt.Errorf("rtmodel: unsupported version %d (want %d)", ver, Version)
	}
	// Every count is capped and checked against the bytes left (Count),
	// and slices start at no more than 4096 entries, growing only as
	// real entries arrive, so a forged count cannot make Load allocate
	// ahead of its input.
	nstr := d.Count(1 << 24)
	table := make([]string, 0, min(nstr, 4096))
	for range nstr {
		table = append(table, d.rawString())
	}
	ref := func() string {
		id := d.Uvarint()
		if id >= uint64(len(table)) {
			d.fail("string ref %d out of range", id)
			return ""
		}
		return table[id]
	}
	nnodes := d.Count(1 << 26)
	m := &Model{Nodes: make([]Node, 0, min(nnodes, 4096))}
	for i := 0; i < nnodes && d.Err() == nil; i++ {
		// Composite literals below list fields in record order; Go
		// evaluates their calls left to right.
		m.Nodes = append(m.Nodes, Node{Kind: ref(), Name: ref(), ID: ref(), Type: ref()})
		n := &m.Nodes[i]
		// Every parent precedes its children, the root (index 0)
		// carrying -1. Consumers (path tables, ancestor walks) rely on
		// that invariant, so a file violating it is malformed, not
		// merely unusual.
		parent := d.Varint()
		if parent < -1 || parent >= int64(i) {
			d.fail("node %d has out-of-preorder parent %d", i, parent)
		}
		n.Parent = int32(parent)
		nattrs := d.Count(MaxWireCount)
		n.Attrs = make([]Attr, 0, min(nattrs, 64))
		for range nattrs {
			n.Attrs = append(n.Attrs, Attr{
				Name: ref(), Raw: ref(), Unit: ref(),
				Dim: units.Dimension(d.Uvarint()), Flags: AttrFlags(d.Uvarint()),
				Value: d.F64(),
			})
		}
		nprops := d.Count(MaxWireCount)
		n.Props = make([]Prop, 0, min(nprops, 64))
		for range nprops {
			p := Prop{Name: ref()}
			for range d.Count(MaxWireCount) {
				p.KVs = append(p.KVs, [2]string{ref(), ref()})
			}
			n.Props = append(n.Props, p)
		}
		for range d.Count(nnodes) {
			ci := d.Uvarint()
			if ci >= uint64(nnodes) {
				d.fail("child index %d out of range", ci)
			}
			n.Children = append(n.Children, int32(ci))
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadFile reads a model from a file path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Equal reports whether two models hold the same content: node for
// node the same parent, children and NodeContentEqual content. It
// holds exactly when their canonical streams (WriteCanonical) match.
func Equal(a, b *Model) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		x, y := &a.Nodes[i], &b.Nodes[i]
		if x.Parent != y.Parent || !slices.Equal(x.Children, y.Children) || !NodeContentEqual(x, y) {
			return false
		}
	}
	return true
}

// NodeContentEqual reports whether two nodes carry the same content:
// kind, name, id, type, attributes and properties; parent and children
// are not compared. Attribute values compare by their bits, as both
// encodings store them: a NaN equals itself, and 0 differs from -0.
func NodeContentEqual(a, b *Node) bool {
	return a.Kind == b.Kind && a.Name == b.Name && a.ID == b.ID && a.Type == b.Type &&
		slices.EqualFunc(a.Attrs, b.Attrs, func(x, y Attr) bool {
			return x.Name == y.Name && x.Raw == y.Raw && x.Unit == y.Unit && x.Dim == y.Dim &&
				x.Flags == y.Flags && math.Float64bits(x.Value) == math.Float64bits(y.Value)
		}) &&
		slices.EqualFunc(a.Props, b.Props, func(p, q Prop) bool {
			return p.Name == q.Name && slices.Equal(p.KVs, q.KVs)
		})
}
