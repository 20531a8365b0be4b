// Package resolve implements the XPDL model composition engine: it turns
// a concrete model (a <system> instance referencing meta-models by name)
// into a fully expanded instance tree.
//
// Resolution performs, in order (Section III-A):
//
//  1. Meta-model flattening: the (multiple) inheritance hierarchy given
//     by extends= is merged supertype-first, so subtypes overscribe
//     attribute values and add members (Listing 8/9: Nvidia_K20c
//     extends Nvidia_Kepler).
//  2. Type instantiation: every component with type=T is merged with the
//     flattened meta-model T fetched from the repository; instance
//     attributes and parameter bindings override meta defaults
//     (Listing 10: the concrete gpu1 fixes one L1/shm configuration).
//  3. Parameter binding and substitution: attribute values naming a
//     param or const in scope are replaced by the bound value
//     (Listing 8: <core frequency="cfrq">).
//  4. Group expansion: <group prefix="core" quantity="4"> becomes member
//     instances core0..core3; quantity may be a param expression
//     (Listing 8: quantity="num_SM").
//  5. Constraint checking: every <constraint expr=...> whose identifiers
//     are bound must evaluate to true (Listing 8:
//     L1size + shmsize == shmtotalsize).
package resolve

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"xpdl/internal/expr"
	"xpdl/internal/model"
	"xpdl/internal/obs"
	"xpdl/internal/repo"
	"xpdl/internal/units"
)

// Composition-engine counters in the process-wide registry: group
// expansion and flatten-cache effectiveness, the two levers of
// resolution cost (see /metrics on any obs-enabled tool).
var (
	mGroupsExpanded = obs.Default().Counter("xpdl_resolve_groups_expanded_total",
		"Quantity-groups expanded into member replicas (groups inside a copied member are copied, not expanded).")
	mGroupMembers = obs.Default().Counter("xpdl_resolve_group_members_total",
		"Group member instances created by expansion, copies of the first member included.")
	mFlattenHits = obs.Default().Counter("xpdl_resolve_flatten_cache_hits_total",
		"Meta-model flattenings served from the memo cache.")
	mFlattenMisses = obs.Default().Counter("xpdl_resolve_flatten_cache_misses_total",
		"Meta-model flattenings computed from repository descriptors.")
)

// Resolver composes concrete models against a descriptor repository.
// A Resolver is not safe for concurrent use by multiple goroutines; use
// Fork to give each goroutine its own.
type Resolver struct {
	Repo *repo.Repository
	// MaxDepth bounds meta-model recursion to catch reference cycles
	// that survive the explicit cycle check (default 64).
	MaxDepth int

	flatCache map[string]*model.Component // flattened meta-models by name
	visiting  map[string]bool             // cycle detection for flattening
}

// New returns a resolver over the given repository.
func New(r *repo.Repository) *Resolver {
	return &Resolver{Repo: r, MaxDepth: 64,
		flatCache: map[string]*model.Component{},
		visiting:  map[string]bool{},
	}
}

// Error is a resolution failure with the position of the offending
// component.
type Error struct {
	Component string
	Pos       string
	Msg       string
	// Violation marks failures caused by the model's parameter values —
	// a constraint evaluating to false or a binding outside its legal
	// range — as opposed to structural/reference errors. Sweep drivers
	// use it to classify a point as "skipped" (an illegal configuration,
	// expected while exploring a grid) rather than "failed".
	Violation bool
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Pos != "" {
		return fmt.Sprintf("resolve: %s: %s: %s", e.Pos, e.Component, e.Msg)
	}
	return fmt.Sprintf("resolve: %s: %s", e.Component, e.Msg)
}

func errf(c *model.Component, format string, args ...any) *Error {
	pos := ""
	if c.Pos.IsValid() {
		pos = c.Pos.String()
	}
	ident := c.Ident()
	if ident == "" {
		ident = "<" + c.Kind + ">"
	}
	return &Error{Component: ident, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Fork returns an independent resolver over the same repository whose
// flatten cache starts as a snapshot of r's. Forks let callers run many
// resolutions concurrently — one fork per goroutine — without
// re-flattening the meta-models those resolutions share (the cached
// trees are immutable once published, so sharing them is safe).
func (r *Resolver) Fork() *Resolver {
	return &Resolver{Repo: r.Repo, MaxDepth: r.MaxDepth,
		flatCache: maps.Clone(r.flatCache),
		visiting:  map[string]bool{},
	}
}

// FlattenedMetas returns the meta-model trees flattened so far, sorted
// by name. The trees are shared with the resolver's memo cache and must
// be treated as read-only. Sweep drivers scan them (plus the concrete
// root) for group quantity expressions referencing a swept parameter,
// which would make the parameter structural.
func (r *Resolver) FlattenedMetas() []*model.Component {
	names := make([]string, 0, len(r.flatCache))
	for k := range r.flatCache {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]*model.Component, len(names))
	for i, k := range names {
		out[i] = r.flatCache[k]
	}
	return out
}

// ResolveSystem loads the named concrete model from the repository and
// returns its fully expanded instance tree. The repository contents are
// not mutated.
func (r *Resolver) ResolveSystem(ident string) (*model.Component, error) {
	root, err := r.Repo.Load(ident)
	if err != nil {
		return nil, err
	}
	return r.Instantiate(root)
}

// Instantiate fully expands one component tree (without registering the
// result anywhere). The input is cloned, never mutated.
func (r *Resolver) Instantiate(c *model.Component) (*model.Component, error) {
	inst := c.Clone()
	out, err := r.instantiate(inst, nil, 0)
	if err != nil {
		return nil, err
	}
	if err := r.checkEndpoints(out); err != nil {
		return nil, err
	}
	return out, nil
}

// scope carries the parameter/constant environment from enclosing
// components down the instantiation recursion.
type scope struct {
	parent *scope
	comp   *model.Component
}

// lookup resolves an identifier to a normalized value, searching the
// innermost scope first.
func (s *scope) lookup(name string) (expr.Value, string, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if p := sc.comp.Param(name); p != nil && p.Bound() {
			return bindingValue(p.Value, p.Unit)
		}
		if k := sc.comp.Const(name); k != nil && k.Value != "" {
			return bindingValue(k.Value, k.Unit)
		}
	}
	return expr.Value{}, "", false
}

// declared reports whether the identifier names a param/const anywhere
// in scope, bound or not.
func (s *scope) declared(name string) bool {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.comp.Param(name) != nil || sc.comp.Const(name) != nil {
			return true
		}
	}
	return false
}

// bindingValue normalizes a raw binding to an expr.Value. Values with a
// unit are normalized to base units; bare numbers stay plain; anything
// else is a string.
func bindingValue(raw, unit string) (expr.Value, string, bool) {
	if unit != "" {
		if q, err := units.Parse(raw, unit); err == nil {
			return expr.Number(q.Value), unit, true
		}
	}
	if f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64); err == nil {
		return expr.Number(f), unit, true
	}
	return expr.String(raw), unit, true
}

type scopeEnv struct{ s *scope }

func (e scopeEnv) Lookup(name string) (expr.Value, bool) {
	v, _, ok := e.s.lookup(name)
	return v, ok
}

func (e scopeEnv) Call(name string, args []expr.Value) (expr.Value, error) {
	return expr.CallBuiltin(name, args)
}

// instantiate expands one component in place and returns it.
func (r *Resolver) instantiate(c *model.Component, parent *scope, depth int) (*model.Component, error) {
	if depth > r.MaxDepth {
		return nil, errf(c, "meta-model nesting exceeds %d levels (reference cycle?)", r.MaxDepth)
	}

	// 1.+2. Merge the flattened meta-model referenced by type=.
	if c.Type != "" {
		meta, err := r.flatten(c.Type, depth)
		if err != nil {
			// Unresolvable type references on leaf components whose type
			// is pure data (e.g. memory type="DDR3" where no DDR3
			// descriptor exists) degrade to a tag, matching the paper's
			// use of type as both reference and classification.
			if !isLeafTypeTag(c) {
				return nil, errf(c, "cannot resolve type %q: %v", c.Type, err)
			}
		} else {
			merged := mergeMetaInstance(meta, c)
			*c = *merged
		}
	}
	// Flatten local extends= (a meta-model defined in-line).
	if len(c.Extends) > 0 {
		base, err := r.flattenExtends(c, depth)
		if err != nil {
			return nil, err
		}
		*c = *base
	}

	sc := &scope{parent: parent, comp: c}

	// 3. Substitute param/const references in attribute values.
	if err := r.substituteAttrs(c, sc); err != nil {
		return nil, err
	}

	// Children of a power domain are references to hardware entities by
	// type or id (Listing 12: <core type="Leon"/>), not meta-model
	// instantiations — keep them verbatim.
	if c.Kind == "power_domain" {
		return c, r.checkConstraints(c, sc)
	}

	// 4.+recursion: expand groups and instantiate children.
	var children []*model.Component
	for _, ch := range c.Children {
		expanded, err := r.expandChild(ch, sc, depth)
		if err != nil {
			return nil, err
		}
		children = append(children, expanded...)
	}
	c.Children = children

	// 5. Check constraints that are fully bound.
	if err := r.checkConstraints(c, sc); err != nil {
		return nil, err
	}
	return c, nil
}

// isLeafTypeTag reports whether the component's type= can act as a
// plain classification tag when no meta-model of that name exists.
func isLeafTypeTag(c *model.Component) bool {
	switch c.Kind {
	case "memory", "hostOS", "installed", "programming_model", "property":
		return true
	default:
		return false
	}
}

// expandChild instantiates one child, expanding quantity-groups into
// member replicas. Members differ only in their ids: each is built from
// the same template in the same scope, and nothing in instantiate reads
// the member id. So member 0 is instantiated once and the others are
// copies of it, which is far cheaper than instantiating each again. A
// failing group reports member 0's error.
//
// Member 0 is frozen before it is copied, so all members share each
// node's attribute map until one of them writes to it. The group's own
// constraints are checked in member 0's scope, where its params are
// bound, and its properties stay on the container beside its
// attributes.
func (r *Resolver) expandChild(ch *model.Component, sc *scope, depth int) ([]*model.Component, error) {
	if ch.Kind == "group" && ch.Quantity != "" {
		n, err := r.evalQuantity(ch, sc)
		if err != nil {
			return nil, err
		}
		container := model.New("group")
		container.Name, container.ID, container.Prefix = ch.Name, ch.ID, ch.Prefix
		container.Pos = ch.Pos
		container.Attrs, container.Properties = ch.Attrs, ch.Properties
		mGroupsExpanded.Inc()
		mGroupMembers.Add(int64(n))
		members := make([]*model.Component, n)
		if n > 0 {
			base := memberBaseName(ch)
			first := model.New("group")
			first.ID = base + "0"
			first.Pos = ch.Pos
			for _, gc := range ch.Children {
				first.Children = append(first.Children, gc.Clone())
			}
			first.Params = cloneParams(ch.Params)
			first.Consts = cloneConsts(ch.Consts)
			first.Constraints = slices.Clone(ch.Constraints)
			if first, err = r.instantiate(first, sc, depth+1); err != nil {
				return nil, err
			}
			if n > 1 {
				first.Freeze()
			}
			members[0] = first
			for i := 1; i < n; i++ {
				members[i] = first.Clone()
				members[i].ID = base + strconv.Itoa(i)
			}
		}
		container.Children = members
		return []*model.Component{container}, nil
	}
	inst, err := r.instantiate(ch, sc, depth+1)
	if err != nil {
		return nil, err
	}
	return []*model.Component{inst}, nil
}

// memberBaseName picks the identifier stem for group members: the
// explicit prefix if given (Listing 1), else the group's own name/id,
// else "member".
func memberBaseName(g *model.Component) string {
	switch {
	case g.Prefix != "":
		return g.Prefix
	case g.Name != "":
		return g.Name
	case g.ID != "":
		return g.ID
	default:
		return "member"
	}
}

func (r *Resolver) evalQuantity(g *model.Component, sc *scope) (int, error) {
	if n, err := strconv.Atoi(strings.TrimSpace(g.Quantity)); err == nil {
		if n < 0 {
			return 0, errf(g, "negative group quantity %d", n)
		}
		return n, nil
	}
	v, err := expr.Eval(g.Quantity, scopeEnv{sc})
	if err != nil {
		return 0, errf(g, "cannot evaluate quantity %q: %v", g.Quantity, err)
	}
	if v.Kind != expr.KindNumber || v.Num < 0 || v.Num != float64(int(v.Num)) {
		return 0, errf(g, "quantity %q = %s is not a non-negative integer", g.Quantity, v.GoString())
	}
	return int(v.Num), nil
}

// substituteAttrs replaces attribute values that name a bound param or
// const with the binding's value, normalizing units.
func (r *Resolver) substituteAttrs(c *model.Component, sc *scope) error {
	for name, a := range c.Attrs {
		if a.HasQuantity || a.Unknown || a.Raw == "" {
			continue
		}
		if !isIdentLike(a.Raw) {
			continue
		}
		v, unit, ok := sc.lookup(a.Raw)
		if !ok {
			// Not a param reference — leave strings like endian="LE"
			// untouched. But a declared-yet-unbound param used as an
			// attribute value on an instance is an error.
			if sc.declared(a.Raw) && !c.IsMeta() {
				return errf(c, "attribute %s references unbound parameter %q", name, a.Raw)
			}
			continue
		}
		applyBinding(c, name, a, v, unit)
	}
	return nil
}

// applyBinding rewrites one attribute from a resolved binding value —
// the single substitution path shared by initial resolution and the
// sweep fast path (Rebind), so both produce bit-identical attributes.
func applyBinding(c *model.Component, name string, a model.Attr, v expr.Value, unit string) {
	if v.Kind == expr.KindNumber {
		dim := units.DimensionForAttr(name)
		if unit != "" {
			if d, _, err := units.ParseUnit(unit); err == nil && d != units.Dimensionless {
				dim = d
			}
		} else if a.Unit != "" {
			// The attribute carries its own unit for a bare-number
			// binding (Listing 8: frequency="cfrq" frequency_unit="MHz"
			// with cfrq bound to 706 without a unit).
			if q, err := units.Parse(strconv.FormatFloat(v.Num, 'g', -1, 64), a.Unit); err == nil {
				c.SetAttr(name, model.Attr{Raw: a.Raw, Unit: a.Unit, Quantity: q, HasQuantity: true})
				return
			}
		}
		c.SetAttr(name, model.Attr{
			Raw: a.Raw, Unit: unit,
			Quantity:    units.Quantity{Value: v.Num, Dim: dim},
			HasQuantity: true,
		})
	} else {
		c.SetAttr(name, model.Attr{Raw: v.Str})
	}
}

// IdentLike reports whether s has the shape of a parameter or
// constant reference (an identifier: letter or underscore first, then
// letters, digits, underscores and dots) — the same test the resolver
// applies before attempting scope substitution on an attribute value.
// The incremental re-resolution layer uses it to recognize attribute
// values that may be rewritten by parameter substitution, which a
// descriptor-level patch cannot reproduce.
func IdentLike(s string) bool { return isIdentLike(s) }

func isIdentLike(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		ch := s[i]
		ok := ch == '_' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || (i > 0 && (ch >= '0' && ch <= '9' || ch == '.'))
		if !ok {
			return false
		}
	}
	return true
}

func (r *Resolver) checkConstraints(c *model.Component, sc *scope) error {
	return checkConstraintsFiltered(c, sc, nil)
}

// checkConstraintsFiltered is the constraint/range pass. A nil filter
// checks everything (initial resolution); a non-nil filter — the sweep
// fast path — checks only constraints whose identifiers intersect the
// filtered names and ranges of the filtered parameters, which is sound
// when everything outside the filter already passed on the base tree.
// Error messages and ordering match the unfiltered pass among the
// checks both perform, so both report the same first violation.
func checkConstraintsFiltered(c *model.Component, sc *scope, filter map[string]bool) error {
	for _, cons := range c.Constraints {
		node, err := expr.Compile(cons.Expr)
		if err != nil {
			return errf(c, "constraint %q: %v", cons.Expr, err)
		}
		ids := expr.Idents(node)
		if filter != nil && !intersects(ids, filter) {
			continue
		}
		allBound := true
		for _, id := range ids {
			if _, _, ok := sc.lookup(id); !ok {
				allBound = false
				break
			}
		}
		if !allBound {
			if c.IsMeta() {
				continue // generic meta-model; checked when instantiated
			}
			return errf(c, "constraint %q references unbound parameters", cons.Expr)
		}
		v, err := expr.EvalNode(node, scopeEnv{sc})
		if err != nil {
			return errf(c, "constraint %q: %v", cons.Expr, err)
		}
		if !v.Truthy() {
			e := errf(c, "constraint violated: %s", cons.Expr)
			e.Violation = true
			return e
		}
	}
	// Range checks for bound params.
	for _, p := range c.Params {
		if !p.Bound() || len(p.Range) == 0 {
			continue
		}
		if filter != nil && !filter[p.Name] {
			continue
		}
		if !rangeContains(p.Range, p.Value) {
			e := errf(c, "parameter %s=%s outside legal range %v", p.Name, p.Value, p.Range)
			e.Violation = true
			return e
		}
	}
	return nil
}

func intersects(ids []string, names map[string]bool) bool {
	for _, id := range ids {
		if names[id] {
			return true
		}
	}
	return false
}

func rangeContains(rng []string, val string) bool {
	fv, numErr := strconv.ParseFloat(strings.TrimSpace(val), 64)
	for _, r := range rng {
		if r == val {
			return true
		}
		if numErr == nil {
			if rv, err := strconv.ParseFloat(r, 64); err == nil && rv == fv {
				return true
			}
		}
	}
	return false
}

// flatten resolves a meta-model by name and merges its inheritance
// chain. Results are memoized; the returned tree is shared, callers
// must clone before mutating.
func (r *Resolver) flatten(name string, depth int) (*model.Component, error) {
	if flat, ok := r.flatCache[name]; ok {
		mFlattenHits.Inc()
		return flat, nil
	}
	mFlattenMisses.Inc()
	if r.visiting[name] {
		return nil, fmt.Errorf("inheritance cycle through %q", name)
	}
	if depth > r.MaxDepth {
		return nil, fmt.Errorf("meta-model nesting exceeds %d levels", r.MaxDepth)
	}
	raw, err := r.Repo.Load(name)
	if err != nil {
		return nil, err
	}
	r.visiting[name] = true
	defer delete(r.visiting, name)

	flat, err := r.flattenExtends(raw.Clone(), depth)
	if err != nil {
		return nil, err
	}
	r.flatCache[name] = flat
	return flat, nil
}

// flattenExtends merges c's supertypes (left to right) under c, so that
// later supertypes and finally c itself override earlier definitions.
func (r *Resolver) flattenExtends(c *model.Component, depth int) (*model.Component, error) {
	if len(c.Extends) == 0 {
		return c, nil
	}
	supers := c.Extends
	merged := model.New(c.Kind)
	merged.Pos = c.Pos
	for _, sup := range supers {
		base, err := r.flatten(sup, depth+1)
		if err != nil {
			return nil, errf(c, "cannot resolve supertype %q: %v", sup, err)
		}
		merged = mergeOver(merged, base.Clone())
	}
	c.Extends = nil
	out := mergeOver(merged, c)
	return out, nil
}

// mergeOver merges `over` on top of `base`: over's identity, attributes
// and bindings win; children are concatenated base-first; constraints
// accumulate.
func mergeOver(base, over *model.Component) *model.Component {
	out := base
	if over.Kind != "" {
		out.Kind = over.Kind
	}
	out.Name, out.ID, out.Type = over.Name, over.ID, over.Type
	out.Prefix, out.Quantity = coalesce(over.Prefix, base.Prefix), coalesce(over.Quantity, base.Quantity)
	if over.Pos.IsValid() {
		out.Pos = over.Pos
	}
	for k, v := range over.Attrs {
		out.SetAttr(k, v)
	}
	// Params merge by name: the overriding side contributes bindings,
	// the base keeps declaration metadata (type, range, configurable).
	for _, p := range over.Params {
		if bp := out.Param(p.Name); bp != nil {
			if p.Bound() {
				bp.Value, bp.Unit = p.Value, p.Unit
			}
			if p.Type != "" {
				bp.Type = p.Type
			}
			if len(p.Range) > 0 {
				bp.Range = p.Range
			}
			if p.Configurable {
				bp.Configurable = true
			}
		} else {
			q := *p
			q.Range = append([]string(nil), p.Range...)
			out.Params = append(out.Params, &q)
		}
	}
	for _, k := range over.Consts {
		if bc := out.Const(k.Name); bc != nil {
			if k.Value != "" {
				bc.Value, bc.Unit = k.Value, k.Unit
			}
		} else {
			q := *k
			out.Consts = append(out.Consts, &q)
		}
	}
	out.Constraints = append(out.Constraints, over.Constraints...)
	out.Properties = append(out.Properties, over.Properties...)
	out.Children = append(out.Children, over.Children...)
	return out
}

func coalesce(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// mergeMetaInstance merges a flattened meta-model into an instance that
// references it with type=: the instance keeps its identity, overrides
// attributes and parameter bindings, and appends its own children after
// the meta's structural children.
func mergeMetaInstance(meta, inst *model.Component) *model.Component {
	base := meta.Clone()
	base.Name = "" // the result is an instance, not a meta-model
	out := mergeOver(base, inst)
	out.Type = inst.Type // keep the type tag for query/introspection
	return out
}

func cloneParams(ps []*model.Param) []*model.Param {
	out := make([]*model.Param, len(ps))
	for i, p := range ps {
		q := *p
		q.Range = append([]string(nil), p.Range...)
		out[i] = &q
	}
	return out
}

func cloneConsts(cs []*model.Const) []*model.Const {
	out := make([]*model.Const, len(cs))
	for i, c := range cs {
		q := *c
		out[i] = &q
	}
	return out
}

// checkEndpoints verifies that every interconnect instance's head/tail
// references an id that exists in the composed tree (Listing 4: the
// connection information must be specified for interconnect instances).
func (r *Resolver) checkEndpoints(root *model.Component) error {
	ids := map[string]bool{}
	root.Walk(func(c *model.Component) bool {
		if c.ID != "" {
			ids[c.ID] = true
		}
		return true
	})
	var firstErr error
	root.Walk(func(c *model.Component) bool {
		if firstErr != nil {
			return false
		}
		if c.Kind != "interconnect" || c.IsMeta() {
			return true
		}
		for _, end := range []string{"head", "tail"} {
			ref := c.AttrRaw(end)
			if ref == "" {
				continue
			}
			if !ids[ref] {
				firstErr = errf(c, "%s endpoint %q does not exist in the composed model", end, ref)
				return false
			}
		}
		return true
	})
	return firstErr
}

// FindByPath resolves a slash-separated instance path like
// "n0/gpu1" from the root, where each segment matches a descendant id
// (searched breadth-first below the previous match). It disambiguates
// replicated ids such as the per-node gpu1 devices of a cluster.
func FindByPath(root *model.Component, path string) *model.Component {
	cur := root
	for _, seg := range strings.Split(path, "/") {
		if seg == "" {
			continue
		}
		next := cur.FindByID(seg)
		if next == nil || next == cur {
			return nil
		}
		cur = next
	}
	return cur
}
