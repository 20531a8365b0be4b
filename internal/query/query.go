// Package query implements the XPDL run-time query API of Section IV.
// It loads the light-weight runtime model emitted by the processing tool
// and offers the paper's four function categories:
//
//  1. Initialization — Init / InitReader correspond to
//     int xpdl_init(char *filename).
//  2. Browsing the model tree — Root, Parent, Children, Descendants.
//  3. Attribute getters — GetString/GetFloat/GetQuantity/GetInt/GetBool,
//     the Go equivalent of the generated m.get_id()-style getters.
//  4. Model analysis functions for derived attributes — NumCores,
//     NumCUDADevices, TotalStaticPower, SumAttr.
//
// In addition, Env exposes the loaded platform model to the constraint
// expression language so that conditional composition (Section II) can
// evaluate selectability predicates such as
// "installed('CUBLAS') && num_cores() >= 4" at run time.
package query

import (
	"io"
	"strconv"
	"strings"
	"sync"

	"xpdl/internal/expr"
	"xpdl/internal/obs"
	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// Runtime-API counters in the process-wide registry: how often
// applications hit the model (see /metrics on any obs-enabled tool).
// Single atomic adds — cheap enough to stay enabled unconditionally.
var (
	mLookups = obs.Default().Counter("xpdl_query_lookups_total",
		"Identifier lookups through Session.Find.")
	mSelectorEvals = obs.Default().Counter("xpdl_query_selector_evals_total",
		"Path-selector evaluations (Select/SelectOne).")
	mEnvCalls = obs.Default().Counter("xpdl_query_env_calls_total",
		"Platform functions invoked from constraint expressions.")
)

// Session is an initialized runtime query environment over one loaded
// platform model. It is immutable after Init and safe for concurrent
// use. Selector indexes (see BuildIndexes) are constructed lazily at
// most once and never change afterwards.
type Session struct {
	m *rtmodel.Model

	idxOnce sync.Once
	idx     *selIndex

	rollOnce sync.Once
	roll     *rollups
}

// Init loads the runtime model file produced by the XPDL processing
// tool — the equivalent of the paper's xpdl_init().
func Init(path string) (*Session, error) {
	m, err := rtmodel.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return NewSession(m), nil
}

// InitReader loads a runtime model from a stream.
func InitReader(r io.Reader) (*Session, error) {
	m, err := rtmodel.Load(r)
	if err != nil {
		return nil, err
	}
	return NewSession(m), nil
}

// NewSession wraps an already loaded model.
func NewSession(m *rtmodel.Model) *Session {
	s := &Session{m: m}
	// Force index construction now so later lookups never mutate state
	// concurrently.
	s.m.Lookup("")
	return s
}

// Model returns the underlying runtime model.
func (s *Session) Model() *rtmodel.Model { return s.m }

// Elem is a cursor over one model element; the zero Elem is invalid.
type Elem struct {
	s   *Session
	idx int32
	ok  bool
}

// Root returns the model root element.
func (s *Session) Root() Elem {
	if s.m.Len() == 0 {
		return Elem{}
	}
	return Elem{s: s, idx: 0, ok: true}
}

// Find locates an element by identifier anywhere in the model.
func (s *Session) Find(ident string) (Elem, bool) {
	mLookups.Inc()
	i, ok := s.m.LookupIndex(ident)
	if !ok {
		return Elem{}, false
	}
	return Elem{s: s, idx: i, ok: true}, true
}

// Valid reports whether the cursor points at an element.
func (e Elem) Valid() bool { return e.ok }

func (e Elem) node() *rtmodel.Node { return e.s.m.Node(e.idx) }

// Kind returns the element kind (cpu, cache, ...).
func (e Elem) Kind() string { return e.node().Kind }

// ID returns the instance identifier.
func (e Elem) ID() string { return e.node().ID }

// Name returns the meta-model name.
func (e Elem) Name() string { return e.node().Name }

// TypeName returns the referenced meta-model type.
func (e Elem) TypeName() string { return e.node().Type }

// Ident returns ID if set, else Name.
func (e Elem) Ident() string { return e.node().Ident() }

// Parent returns the enclosing element.
func (e Elem) Parent() (Elem, bool) {
	p := e.node().Parent
	if p < 0 {
		return Elem{}, false
	}
	return Elem{s: e.s, idx: p, ok: true}, true
}

// Children returns all direct child elements.
func (e Elem) Children() []Elem {
	n := e.node()
	out := make([]Elem, len(n.Children))
	for i, c := range n.Children {
		out[i] = Elem{s: e.s, idx: c, ok: true}
	}
	return out
}

// NumChildren returns the number of direct child elements.
func (e Elem) NumChildren() int { return len(e.node().Children) }

// Child returns the i-th direct child element, 0 <= i < NumChildren().
// Together with NumChildren it visits children without allocating.
func (e Elem) Child(i int) Elem {
	return Elem{s: e.s, idx: e.node().Children[i], ok: true}
}

// ChildrenOfKind returns the direct children of the given kind.
func (e Elem) ChildrenOfKind(kind string) []Elem {
	var out []Elem
	for _, c := range e.node().Children {
		if e.s.m.Nodes[c].Kind == kind {
			out = append(out, Elem{s: e.s, idx: c, ok: true})
		}
	}
	return out
}

// FirstChild returns the first direct child of the given kind.
func (e Elem) FirstChild(kind string) (Elem, bool) {
	for _, c := range e.node().Children {
		if e.s.m.Nodes[c].Kind == kind {
			return Elem{s: e.s, idx: c, ok: true}, true
		}
	}
	return Elem{}, false
}

// Descendants returns every element of the given kind in the subtree
// (excluding e itself), in preorder.
func (e Elem) Descendants(kind string) []Elem {
	var out []Elem
	e.walk(func(x Elem) bool {
		if x.idx != e.idx && x.Kind() == kind {
			out = append(out, x)
		}
		return true
	})
	return out
}

// walk visits the subtree in preorder; fn returning false skips the
// element's descendants. It reads child indices in place, so a walk
// allocates nothing.
func (e Elem) walk(fn func(Elem) bool) {
	if !fn(e) {
		return
	}
	for _, c := range e.node().Children {
		Elem{s: e.s, idx: c, ok: true}.walk(fn)
	}
}

// Path returns the slash-separated identifier path from the root. The
// per-model path table is built with the selector indexes on first
// use, so the serving hot path answers from it without allocating.
func (e Elem) Path() string {
	return e.s.indexes().paths[e.idx]
}

// ---- Attribute getters (category 3) ----

// GetString returns the raw string of an attribute.
func (e Elem) GetString(attr string) (string, bool) {
	a, ok := e.node().Attr(attr)
	if !ok {
		return "", false
	}
	return a.Raw, true
}

// GetFloat returns the normalized numeric value of an attribute.
func (e Elem) GetFloat(attr string) (float64, bool) {
	a, ok := e.node().Attr(attr)
	if !ok || !a.HasValue() {
		return 0, false
	}
	return a.Value, true
}

// GetQuantity returns the normalized quantity of an attribute.
func (e Elem) GetQuantity(attr string) (units.Quantity, bool) {
	a, ok := e.node().Attr(attr)
	if !ok || !a.HasValue() {
		return units.Quantity{}, false
	}
	return units.Quantity{Value: a.Value, Dim: a.Dim}, true
}

// GetInt returns an attribute as int.
func (e Elem) GetInt(attr string) (int, bool) {
	if f, ok := e.GetFloat(attr); ok {
		return int(f), true
	}
	if s, ok := e.GetString(attr); ok {
		if v, err := strconv.Atoi(strings.TrimSpace(s)); err == nil {
			return v, true
		}
	}
	return 0, false
}

// GetBool returns an attribute as bool.
func (e Elem) GetBool(attr string) (bool, bool) {
	s, ok := e.GetString(attr)
	if !ok {
		return false, false
	}
	b, err := strconv.ParseBool(strings.ToLower(strings.TrimSpace(s)))
	if err != nil {
		return false, false
	}
	return b, true
}

// Attrs returns the element's attributes in declaration order. The
// slice is shared with the runtime model and must not be mutated —
// used by serving layers that project elements into wire formats.
func (e Elem) Attrs() []rtmodel.Attr { return e.node().Attrs }

// Property returns a free-form property by name.
func (e Elem) Property(name string) (rtmodel.Prop, bool) {
	for _, p := range e.node().Props {
		if p.Name == name {
			return p, true
		}
	}
	return rtmodel.Prop{}, false
}

// ---- Derived model analysis (category 4) ----

// NumCores counts hardware <core> elements in the subtree. Member
// references inside power domains are not hardware and are skipped.
func (e Elem) NumCores() int { return e.countKind("core") }

func (e Elem) countKind(kind string) int {
	n := 0
	e.walk(func(x Elem) bool {
		if x.Kind() == "power_domain" && x.idx != e.idx {
			return false
		}
		if x.Kind() == kind {
			n++
		}
		return true
	})
	return n
}

// NumCUDADevices counts devices advertising a CUDA programming model.
func (e Elem) NumCUDADevices() int {
	n := 0
	e.walk(func(x Elem) bool {
		if (x.Kind() == "device" || x.Kind() == "gpu") && x.cudaDevice() {
			n++
			return false
		}
		return true
	})
	return n
}

// cudaDevice reports whether the element's first programming_model
// child names CUDA.
func (e Elem) cudaDevice() bool {
	pm, ok := e.FirstChild("programming_model")
	if !ok {
		return false
	}
	typ, ok := pm.GetString("type")
	return ok && strings.Contains(strings.ToLower(typ), "cuda")
}

// TotalStaticPower sums static_power over the subtree (in watts).
func (e Elem) TotalStaticPower() units.Quantity {
	return units.Quantity{Value: e.SumAttr("static_power"), Dim: units.Power}
}

// SumAttr sums the normalized value of an attribute over the subtree.
func (e Elem) SumAttr(attr string) float64 {
	total := 0.0
	e.walk(func(x Elem) bool {
		if v, ok := x.GetFloat(attr); ok {
			total += v
		}
		return true
	})
	return total
}

// MinAttr returns the minimum normalized attribute value in the subtree.
func (e Elem) MinAttr(attr string) (float64, bool) {
	best, have := 0.0, false
	e.walk(func(x Elem) bool {
		if v, ok := x.GetFloat(attr); ok && (!have || v < best) {
			best, have = v, true
		}
		return true
	})
	return best, have
}

// ---- Per-snapshot rollups ----

// Totals are the whole-model answers of the platform functions
// num_cores(), num_cuda_devices() and total_static_power(): the values
// Root().NumCores(), Root().NumCUDADevices() and
// Root().TotalStaticPower() compute by walking the tree.
type Totals struct {
	Cores       int
	CUDADevices int
	StaticPower float64 // watts
}

// software is one installed or hostOS element.
type software struct{ typ, ident string }

// rollups are the synthesized whole-model attributes of one session
// (Section IV): the tree walkers compute them on first use and every
// later platform-function call reads them. They live on the Session, not in
// the selector indexes, because AdoptIndexes carries those across
// attribute patches and a patch can change a rollup (a static_power
// edit changes the total).
type rollups struct {
	totals   Totals
	kinds    map[string]struct{}
	software []software // preorder
}

func (s *Session) rollups() *rollups {
	s.rollOnce.Do(func() {
		r := &rollups{kinds: map[string]struct{}{}}
		if root := s.Root(); root.Valid() {
			r.totals = Totals{
				Cores:       root.NumCores(),
				CUDADevices: root.NumCUDADevices(),
				StaticPower: root.TotalStaticPower().Value,
			}
			root.walk(func(x Elem) bool {
				n := x.node()
				r.kinds[n.Kind] = struct{}{}
				if n.Kind == "installed" || n.Kind == "hostOS" {
					r.software = append(r.software, software{n.Type, n.Ident()})
				}
				return true
			})
		}
		s.roll = r
	})
	return s.roll
}

// Totals returns the whole-model platform totals, computed once per
// session.
func (s *Session) Totals() Totals { return s.rollups().totals }

// Installed reports whether a software package whose type (or id) starts
// with the given prefix is installed anywhere in the model — the lookup
// behind conditional composition's library-availability constraints
// (e.g. Installed("CUBLAS")).
func (s *Session) Installed(prefix string) bool {
	for _, sw := range s.rollups().software {
		if strings.HasPrefix(sw.typ, prefix) || strings.HasPrefix(sw.ident, prefix) {
			return true
		}
	}
	return false
}

// InstalledList returns the type names (the ident where an element
// has no type) of all installed software, in preorder.
func (s *Session) InstalledList() []string {
	var out []string
	for _, sw := range s.rollups().software {
		if sw.typ != "" {
			out = append(out, sw.typ)
		} else if sw.ident != "" {
			out = append(out, sw.ident)
		}
	}
	return out
}

// HasKind reports whether any element of the given kind exists.
func (s *Session) HasKind(kind string) bool {
	_, ok := s.rollups().kinds[kind]
	return ok
}

// ---- Expression environment for selectability constraints ----

// Env builds an expression environment over the platform model plus
// call-site variables (e.g. problem size, density). The environment
// provides the platform functions:
//
//	installed('LIB')      — software availability
//	has_kind('gpu')       — element-kind presence
//	num_cores()           — core count under the root
//	num_cuda_devices()    — CUDA device count
//	total_static_power()  — watts, summed over the model
//	attr('ident','name')  — normalized attribute of a named element
//
// All but attr are per-session constants read from the rollups.
func (s *Session) Env(vars map[string]expr.Value) expr.Env {
	return platformEnv{s: s, vars: vars}
}

type platformEnv struct {
	s    *Session
	vars map[string]expr.Value
}

func (p platformEnv) Lookup(name string) (expr.Value, bool) {
	v, ok := p.vars[name]
	return v, ok
}

func (p platformEnv) Call(name string, args []expr.Value) (expr.Value, error) {
	mEnvCalls.Inc()
	switch name {
	case "installed":
		if len(args) == 1 && args[0].Kind == expr.KindString {
			return expr.Bool(p.s.Installed(args[0].Str)), nil
		}
	case "has_kind":
		if len(args) == 1 && args[0].Kind == expr.KindString {
			return expr.Bool(p.s.HasKind(args[0].Str)), nil
		}
	case "num_cores":
		if len(args) == 0 {
			return expr.Number(float64(p.s.Totals().Cores)), nil
		}
	case "num_cuda_devices":
		if len(args) == 0 {
			return expr.Number(float64(p.s.Totals().CUDADevices)), nil
		}
	case "total_static_power":
		if len(args) == 0 {
			return expr.Number(p.s.Totals().StaticPower), nil
		}
	case "attr":
		if len(args) == 2 && args[0].Kind == expr.KindString && args[1].Kind == expr.KindString {
			e, ok := p.s.Find(args[0].Str)
			if !ok {
				return expr.Number(0), nil
			}
			if f, ok := e.GetFloat(args[1].Str); ok {
				return expr.Number(f), nil
			}
			if str, ok := e.GetString(args[1].Str); ok {
				return expr.String(str), nil
			}
			return expr.Number(0), nil
		}
	}
	return expr.CallBuiltin(name, args)
}
