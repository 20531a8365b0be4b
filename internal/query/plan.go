package query

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"xpdl/internal/expr"
	"xpdl/internal/obs"
)

// Query-planning counters in the process-wide registry: how often the
// hot select path reuses a compiled plan and answers from the
// per-snapshot indexes instead of re-parsing and walking the tree.
var (
	mPlanCacheHits = obs.Default().Counter("xpdl_query_plan_cache_hits_total",
		"Selector evaluations answered by a cached compiled plan.")
	mPlanCacheMisses = obs.Default().Counter("xpdl_query_plan_cache_misses_total",
		"Selector evaluations that compiled a fresh plan.")
	mIndexBuilds = obs.Default().Counter("xpdl_query_index_builds_total",
		"Per-snapshot selector index constructions (once per session).")
	mIndexedSegments = obs.Default().Counter("xpdl_query_indexed_segments_total",
		"Selector segments resolved by index lookup instead of a tree walk.")
	mWalkedSegments = obs.Default().Counter("xpdl_query_walked_segments_total",
		"Selector segments resolved by the general tree walker.")
	mIndexAdoptions = obs.Default().Counter("xpdl_query_index_adoptions_total",
		"Selector indexes shared from a structurally identical predecessor snapshot.")
	mExprCacheHits = obs.Default().Counter("xpdl_query_expr_cache_hits_total",
		"Constraint expressions answered by a cached compiled expression.")
	mExprCacheMisses = obs.Default().Counter("xpdl_query_expr_cache_misses_total",
		"Constraint expressions compiled afresh.")
)

// Plan is a compiled selector: the parse and predicate analysis happen
// once at Compile time, so evaluating the same selector against many
// snapshots (the xpdld hot path) costs no per-request front-end work.
// A Plan is immutable and safe for concurrent use; it carries no model
// state, so one Plan may run against any number of Sessions, including
// across hot swaps.
type Plan struct {
	selector  string
	segs      []segment
	shape     string
	shapeHash uint64
}

// Compile parses a selector into a reusable plan. The grammar and
// semantics are exactly those of Session.Select.
func Compile(selector string) (*Plan, error) {
	segs, err := parseSelector(selector)
	if err != nil {
		return nil, err
	}
	p := &Plan{selector: selector, segs: segs}
	p.shape = p.buildShape()
	p.shapeHash = fnv64a(p.shape)
	return p, nil
}

// Selector returns the source text the plan was compiled from.
func (p *Plan) Selector() string { return p.selector }

// Run evaluates the plan from the session root — the fast equivalent
// of Session.Select with this plan's selector.
func (p *Plan) Run(s *Session) ([]Elem, error) {
	root := s.Root()
	if !root.Valid() {
		return nil, nil
	}
	return p.run(root, true), nil
}

// RunFrom evaluates the plan relative to an element, like Elem.Select.
func (p *Plan) RunFrom(e Elem) ([]Elem, error) {
	if !e.Valid() {
		return nil, nil
	}
	return p.run(e, true), nil
}

// runWalker evaluates the plan using only the general tree walker,
// never the indexes — the reference implementation the differential
// tests and benchmarks compare the indexed path against.
func (p *Plan) runWalker(e Elem) []Elem {
	if !e.Valid() {
		return nil
	}
	return p.run(e, false)
}

// run executes the compiled segments. useIndex gates the per-snapshot
// index fast paths; both modes must produce identical results.
func (p *Plan) run(from Elem, useIndex bool) []Elem {
	current := []Elem{from}
	for si := range p.segs {
		sg := &p.segs[si]
		var next []Elem
		unique := false
		if useIndex && si == 0 && sg.deep && from.idx == 0 && sg.kind != "*" {
			next = sg.indexed(from.s)
			unique = true
			mIndexedSegments.Inc()
		} else {
			mWalkedSegments.Inc()
			for _, cur := range current {
				next = append(next, sg.apply(cur)...)
			}
		}
		// Dedupe BEFORE applying a positional predicate: on "//" axes an
		// element reachable through two ancestors must occupy one
		// position, not shift the [N] numbering of everything after it
		// (see TestSelectIndexAfterDedupe). Index results are unique and
		// preorder-sorted by construction.
		if !unique {
			next = dedupe(next)
		}
		if sg.index >= 0 {
			if sg.index < len(next) {
				next = next[sg.index : sg.index+1]
			} else {
				next = nil
			}
		}
		current = next
	}
	return current
}

// Describe renders the compiled plan one line per segment, naming the
// strategy the executor uses when the plan runs from the model root —
// the output of `xpdlquery explain`.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s\n", p.selector)
	for i := range p.segs {
		sg := &p.segs[i]
		axis := "/"
		if sg.deep {
			axis = "//"
		}
		fmt.Fprintf(&b, "  seg %d: %s%s  strategy=%s\n", i, axis, sg.text(), sg.strategy(i == 0))
	}
	return b.String()
}

// Shape returns the plan's normalized form with literals stripped:
// predicate comparison values become `?` and positional indexes become
// `#`, while the structural parts — axes, kinds, predicate attributes
// and operators — are kept verbatim. Two selectors that differ only in
// literals share a shape, so per-query statistics aggregate by query
// *class* with bounded cardinality (qstats digests key on this). The
// shape is computed once at Compile and is stable across processes.
func (p *Plan) Shape() string { return p.shape }

// ShapeHash returns the FNV-64a hash of Shape() — the cheap stable
// integer form used as an aggregation key.
func (p *Plan) ShapeHash() uint64 { return p.shapeHash }

func (p *Plan) buildShape() string {
	var b strings.Builder
	for i := range p.segs {
		sg := &p.segs[i]
		if sg.deep {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		b.WriteString(sg.kind)
		switch {
		case sg.index >= 0:
			b.WriteString("[#]")
		case sg.hasPred:
			b.WriteString("[")
			b.WriteString(sg.attr)
			b.WriteString(sg.op)
			b.WriteString("?]")
		}
	}
	return b.String()
}

// ShapeOf compiles (or fetches from the default plan cache) a selector
// and returns its shape and shape hash — the one-call form used by the
// serving layer to digest selectors it did not compile itself.
func ShapeOf(selector string) (string, uint64, error) {
	p, err := defaultPlans.Get(selector)
	if err != nil {
		return "", 0, err
	}
	return p.shape, p.shapeHash, nil
}

// fnv64a is the FNV-1a 64-bit hash — inlined rather than importing
// hash/fnv so shape hashing allocates nothing.
func fnv64a(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// text reconstructs the segment's source form.
func (sg *segment) text() string {
	out := sg.kind
	switch {
	case sg.index >= 0:
		out += "[" + strconv.Itoa(sg.index) + "]"
	case sg.hasPred:
		out += "[" + sg.attr + sg.op + sg.value + "]"
	}
	return out
}

// strategy names how the executor resolves this segment when the plan
// runs from the root element.
func (sg *segment) strategy(first bool) string {
	if !first || !sg.deep || sg.kind == "*" {
		return "walk"
	}
	if !sg.hasPred {
		return "index:kind"
	}
	if sg.op == "=" && !numericLiteral(sg.value) {
		switch sg.attr {
		case "name":
			return "index:kind+name"
		case "id":
			return "index:id"
		}
	}
	return "index:kind-scan"
}

// numericLiteral reports whether matchPred would treat the predicate
// value as a number (and thus compare against attribute values rather
// than the identity strings the maps are keyed by).
func numericLiteral(v string) bool {
	_, err := strconv.ParseFloat(v, 64)
	return err == nil
}

// indexed resolves a deep first segment from the root via the
// per-snapshot indexes. The returned elements are unique and in
// preorder — exactly the walker's output for the same segment.
func (sg *segment) indexed(s *Session) []Elem {
	idx := s.indexes()
	if sg.hasPred && sg.op == "=" && !numericLiteral(sg.value) {
		switch sg.attr {
		case "name":
			return s.elemsOf(idx.byKindName[kindName{sg.kind, sg.value}])
		case "id":
			var out []Elem
			for _, i := range idx.byID[sg.value] {
				if i != 0 && s.m.Nodes[i].Kind == sg.kind {
					out = append(out, Elem{s: s, idx: i, ok: true})
				}
			}
			return out
		}
	}
	candidates := idx.byKind[sg.kind]
	if !sg.hasPred {
		return s.elemsOf(candidates)
	}
	// General predicate: scan only this kind's elements, reusing the
	// walker's matcher so the semantics cannot drift.
	var out []Elem
	for _, i := range candidates {
		if i == 0 {
			continue
		}
		e := Elem{s: s, idx: i, ok: true}
		if sg.matchPred(e) {
			out = append(out, e)
		}
	}
	return out
}

// elemsOf materializes cursors for preorder node indices, skipping the
// root: the walker never considers the element a selector starts from.
func (s *Session) elemsOf(idxs []int32) []Elem {
	var out []Elem
	for _, i := range idxs {
		if i == 0 {
			continue
		}
		out = append(out, Elem{s: s, idx: i, ok: true})
	}
	return out
}

// ---- per-snapshot selector indexes ----

type kindName struct{ kind, name string }

// selIndex accelerates the common selector shapes over one immutable
// model: kind → elements, (kind, name) → elements, id → elements. All
// slices are in preorder, so indexed answers reproduce walker order.
type selIndex struct {
	byKind     map[string][]int32
	byKindName map[kindName][]int32
	byID       map[string][]int32
	// paths holds every node's slash-separated identifier path, built
	// once per immutable model so Elem.Path on the serving hot path is
	// a slice load instead of an ancestor walk with string joins.
	// Joined paths are substrings of one arena per snapshot, so a path
	// kept past its snapshot pins the whole arena. Today paths leave
	// the index only to be copied into encoded answers (refOf and
	// elementOf in internal/serve) or printed by the CLI; keep it so.
	paths []string
}

// buildSelIndex builds the indexes in two passes over the preorder
// nodes so that each structure is allocated once at its final size.
// The counting pass counts the postings of every key and measures
// every path. The filling pass appends each node to capped runs of one
// posting slab, so a full run is slab[lo:hi:hi] and an append past it
// cannot reach its neighbour, and writes each joined path once into
// one arena.
func buildSelIndex(s *Session) *selIndex {
	nodes := s.m.Nodes
	kinds := map[string]int32{}
	names := map[kindName]int32{}
	ids := map[string]int32{}
	plen := make([]int, len(nodes))
	postings, arena := 0, 0
	for i := range nodes {
		n := &nodes[i]
		kinds[n.Kind]++
		postings++
		if n.Name != "" {
			names[kindName{n.Kind, n.Name}]++
			postings++
		}
		if n.ID != "" {
			ids[n.ID]++
			postings++
		}
		// Mirrors the path cases of the filling pass on lengths.
		ident := n.Ident()
		switch p := n.Parent; {
		case p < 0 || p >= int32(i):
			plen[i] = len(ident)
		case ident == "":
			plen[i] = plen[p]
		case plen[p] == 0:
			plen[i] = len(ident)
		default:
			plen[i] = plen[p] + 1 + len(ident)
			arena += plen[i]
		}
	}

	slab := make([]int32, postings)
	idx := &selIndex{paths: make([]string, len(nodes))}
	idx.byKind, slab = carve(kinds, slab)
	idx.byKindName, slab = carve(names, slab)
	idx.byID, _ = carve(ids, slab)
	var b strings.Builder
	b.Grow(arena)
	for i := range nodes {
		n := &nodes[i]
		pi := int32(i)
		idx.byKind[n.Kind] = append(idx.byKind[n.Kind], pi)
		if n.Name != "" {
			k := kindName{n.Kind, n.Name}
			idx.byKindName[k] = append(idx.byKindName[k], pi)
		}
		if n.ID != "" {
			idx.byID[n.ID] = append(idx.byID[n.ID], pi)
		}
		// Nodes are stored in preorder (parents precede children, which
		// the loader enforces), so the parent path is always computed.
		ident := n.Ident()
		switch p := n.Parent; {
		case p < 0 || p >= pi:
			idx.paths[i] = ident
		case ident == "":
			idx.paths[i] = idx.paths[p]
		case idx.paths[p] == "":
			idx.paths[i] = ident
		default:
			start := b.Len()
			b.WriteString(idx.paths[p])
			b.WriteByte('/')
			b.WriteString(ident)
			idx.paths[i] = b.String()[start:]
		}
	}
	return idx
}

// carve makes a map holding, for every counted key, an empty run of
// slab with room for exactly its count, and returns the rest of slab.
func carve[K comparable](counts map[K]int32, slab []int32) (map[K][]int32, []int32) {
	m := make(map[K][]int32, len(counts))
	for k, c := range counts {
		m[k] = slab[:0:c]
		slab = slab[c:]
	}
	return m, slab
}

// indexes returns the session's selector indexes, building them on
// first use. The build runs exactly once per session; the model is
// immutable, so the result never changes.
func (s *Session) indexes() *selIndex {
	s.idxOnce.Do(func() {
		s.idx = buildSelIndex(s)
		mIndexBuilds.Inc()
	})
	return s.idx
}

// BuildIndexes eagerly constructs the per-snapshot selector indexes.
// Serving layers call it at snapshot-load time so the first request
// after a hot swap never pays the build; calling it again is free.
func (s *Session) BuildIndexes() { s.indexes() }

// AdoptIndexes installs from's selector indexes into s instead of
// building fresh ones — the incremental hot-swap path, where a patched
// snapshot differs from its predecessor only in attribute values and
// the kind/kind+name/id maps and precomputed paths are therefore
// identical. Adoption is refused (returning false, with s untouched
// and still able to build its own indexes) unless every node of the
// two models agrees on kind, name, id and parent — the exact inputs of
// buildSelIndex — so a misuse can never serve wrong selector answers.
// It also returns false when s already has indexes.
func (s *Session) AdoptIndexes(from *Session) bool {
	if from == nil || from.m == nil || s.m == nil {
		return false
	}
	if len(s.m.Nodes) != len(from.m.Nodes) {
		return false
	}
	for i := range s.m.Nodes {
		a, b := &s.m.Nodes[i], &from.m.Nodes[i]
		if a.Kind != b.Kind || a.Name != b.Name || a.ID != b.ID || a.Parent != b.Parent {
			return false
		}
	}
	src := from.indexes()
	adopted := false
	s.idxOnce.Do(func() {
		s.idx = src
		adopted = true
		mIndexAdoptions.Inc()
	})
	return adopted
}

// ---- plan cache ----

// PlanCache is a concurrency-safe bounded LRU of compiled query text:
// selector plans (Get) and constraint expressions (Expr), keyed by
// their source. Neither carries model state, so one cache serves every
// snapshot — hot swaps never invalidate it. Both kinds share the one
// capacity.
type PlanCache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*list.Element
	lru     *list.List // front = most recently used; values are *cacheEntry
}

// cacheKey tells a selector from an expression with the same text.
type cacheKey struct {
	text string
	expr bool
}

type cacheEntry struct {
	key cacheKey
	val any // *Plan or expr.Node
}

// NewPlanCache builds a cache bounded to max compiled entries (<= 0
// disables caching: every lookup compiles).
func NewPlanCache(max int) *PlanCache {
	return &PlanCache{max: max, entries: map[cacheKey]*list.Element{}, lru: list.New()}
}

// Get returns the compiled plan for a selector, compiling and caching
// it on first use. Parse errors are returned without being cached.
func (c *PlanCache) Get(selector string) (*Plan, error) {
	v, err := c.lookup(cacheKey{text: selector}, mPlanCacheHits, mPlanCacheMisses, func() (any, error) {
		return Compile(selector)
	})
	if err != nil {
		return nil, err
	}
	return v.(*Plan), nil
}

// Expr returns the compiled form of a constraint expression, compiling
// and caching it on first use. Parse errors are returned without being
// cached.
func (c *PlanCache) Expr(src string) (expr.Node, error) {
	v, err := c.lookup(cacheKey{text: src, expr: true}, mExprCacheHits, mExprCacheMisses, func() (any, error) {
		return expr.Compile(src)
	})
	if err != nil {
		return nil, err
	}
	return v.(expr.Node), nil
}

func (c *PlanCache) lookup(k cacheKey, hits, misses *obs.Counter, compile func() (any, error)) (any, error) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		hits.Inc()
		return v, nil
	}
	c.mu.Unlock()
	misses.Inc()
	v, err := compile()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	// A concurrent lookup may have compiled the same text; keep the
	// resident value so repeated callers share it.
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		v = el.Value.(*cacheEntry).val
	} else if c.max > 0 {
		c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, val: v})
		c.evictLocked()
	}
	c.mu.Unlock()
	return v, nil
}

// evictLocked trims the LRU down to the capacity. Caller holds mu.
func (c *PlanCache) evictLocked() {
	for c.max > 0 && len(c.entries) > c.max {
		back := c.lru.Back()
		if back == nil {
			return
		}
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
	}
}

// SetCapacity rebounds the cache, evicting least-recently-used entries
// when shrinking. A capacity <= 0 disables caching and drops every
// resident entry.
func (c *PlanCache) SetCapacity(max int) {
	c.mu.Lock()
	c.max = max
	if max <= 0 {
		c.entries = map[cacheKey]*list.Element{}
		c.lru.Init()
	} else {
		c.evictLocked()
	}
	c.mu.Unlock()
}

// Len returns the number of resident compiled entries.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// defaultPlans backs Session.Select / Elem.Select and EvalExpr; 1024
// selectors and expressions is far beyond any real client mix, and the
// LRU bound keeps adversarial streams (fuzzers, scrapers) from growing
// it without limit.
var defaultPlans = NewPlanCache(1024)

// DefaultPlanCache returns the process-wide cache used by
// Session.Select and EvalExpr; daemons resize it via SetCapacity.
func DefaultPlanCache() *PlanCache { return defaultPlans }

// EvalExpr is expr.Eval through the process-wide cache: a hot
// expression is parsed once, not at every evaluation.
func EvalExpr(src string, env expr.Env) (expr.Value, error) {
	n, err := defaultPlans.Expr(src)
	if err != nil {
		return expr.Value{}, err
	}
	return expr.EvalNode(n, env)
}
