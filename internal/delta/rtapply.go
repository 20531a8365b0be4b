package delta

import (
	"sort"
	"strings"

	"xpdl/internal/analysis"
	"xpdl/internal/diff"
	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// ApplyRT executes a plan directly against the flat runtime model,
// producing what rtmodel.Build over the Apply result would: patch
// type-matched nodes, then re-run the flagged analyses at the runtime
// level. It exists purely for speed — the composed tree the endpoints
// serve is patched separately by SyncTree, but sessions, indexes and
// fingerprints come from the runtime model, and rebuilding it from
// the tree costs more than the whole rest of the patch path.
//
// The input model is not mutated: the patch runs on m.Fork(), which
// copies the Nodes slice, shares every node's Attrs with m and keeps
// m's identifier index (a patch changes no Kind, Name or ID). Since m
// still reads the shared Attrs, the first write to a node replaces its
// Attrs with a private copy; writing through the shared slice would
// change m. It returns the patched model and the patch-application
// count, which callers should cross-check against Apply's — a mismatch
// means the two levels disagreed and the full pipeline must decide.
func ApplyRT(m *rtmodel.Model, rootIdent string, plan Plan, rules []analysis.SynthRule) (*rtmodel.Model, int) {
	if rules == nil {
		rules = analysis.DefaultRules()
	}
	nm := m.Fork()
	nodes := nm.Nodes
	count := 0
	for i := range nodes {
		n := &nodes[i]
		cowed := false
		for _, p := range plan.Patches {
			if n.Type != p.Type && !(i == 0 && rootIdent == p.Type) {
				continue
			}
			for j := range n.Attrs {
				if n.Attrs[j].Name != p.Attr {
					continue
				}
				// Same guard as Apply: only replace values that still
				// render as the inherited Old.
				if renderRTAttr(n.Attrs[j]) == p.Old {
					if !cowed {
						n.Attrs = append([]rtmodel.Attr(nil), n.Attrs...)
						cowed = true
					}
					n.Attrs[j] = rtmodel.AttrOf(p.Attr, p.New)
					count++
				}
				break
			}
		}
	}
	if plan.NeedAnnotate {
		analysis.AnnotateRT(nm, rules)
	}
	if plan.NeedDowngrade {
		analysis.DowngradeBandwidthRT(nm)
	}
	return nm, count
}

// SyncTree is the tree half of the production patch path; ApplyRT is
// the runtime half, and Apply remains the reference implementation the
// pair is validated against. It patches the composed tree
// copy-on-write and reads the synthesized attributes back from rtNew,
// the already-patched runtime model, instead of re-running the
// tree-level analyses: the runtime model is the tree's preorder
// flattening, so node i of the runtime model is the i-th component of
// the tree walk, and a copied component's synthesized values are
// exactly its runtime twin's. Shared (uncopied) components keep their
// previous values, which are bit-identical to a full re-annotation by
// determinism: their subtrees saw no edit.
//
// SyncTree only reads rtNew, so callers may run it concurrently with
// other read-only consumers (hashing, serialization). It returns the
// patched tree, the patched element paths, and the patch count;
// callers must treat a count that disagrees with ApplyRT's as a failed
// patch.
func SyncTree(system *model.Component, rtNew *rtmodel.Model, rootIdent string, plan Plan, rules []analysis.SynthRule) (*model.Component, []string, int) {
	if rules == nil {
		rules = analysis.DefaultRules()
	}

	// Synthesized attribute names to read back from the runtime twin.
	var synth []string
	if plan.NeedAnnotate {
		for t := range analysis.RollupTargets(rules) {
			synth = append(synth, t)
		}
		sort.Strings(synth)
	}
	if plan.NeedDowngrade {
		synth = append(synth, analysis.BandwidthTarget)
	}

	// Copy-set: with the analyses running at the runtime level, the tree
	// only needs copies where values can differ — patch-type matches,
	// interconnects/channels when the downgrade re-ran (an endpoint edit
	// changes links anywhere in the tree), and their ancestors, whose
	// rollup totals absorb every patched leaf beneath them.
	writableKind := map[string]bool{}
	if plan.NeedDowngrade {
		writableKind["interconnect"] = true
		writableKind["channel"] = true
	}
	patchType := map[string]bool{}
	for _, p := range plan.Patches {
		patchType[p.Type] = true
	}

	var changed []string
	n := 0
	idx := int32(-1)
	// Path rendering is deferred: segs tracks the segment stack of the
	// walk, joined only for the handful of nodes a patch lands on —
	// building a path string per visited node would dominate the walk.
	segs := []string{segOf(system)}
	var rec func(c *model.Component, isRoot bool) (*model.Component, bool)
	rec = func(c *model.Component, isRoot bool) (*model.Component, bool) {
		idx++
		my := idx
		writable := isRoot || writableKind[c.Kind] || patchType[c.Type]
		var children []*model.Component
		for i, ch := range c.Children {
			segs = append(segs, segOf(ch))
			cc, copied := rec(ch, false)
			segs = segs[:len(segs)-1]
			if copied && children == nil {
				children = append(make([]*model.Component, 0, len(c.Children)), c.Children[:i]...)
			}
			if children != nil {
				children = append(children, cc)
			}
		}
		if !writable && children == nil {
			return c, false
		}
		nc := *c
		if children != nil {
			nc.Children = children
		}
		nc.Attrs = make(map[string]model.Attr, len(c.Attrs)+1)
		for k, v := range c.Attrs {
			nc.Attrs[k] = v
		}
		patched := false
		for _, p := range plan.Patches {
			if nc.Type != p.Type && !(isRoot && rootIdent == p.Type) {
				continue
			}
			cur, ok := nc.Attrs[p.Attr]
			if !ok || diff.RenderAttr(cur, true) != p.Old {
				continue
			}
			nc.Attrs[p.Attr] = p.New
			n++
			patched = true
		}
		if patched {
			changed = append(changed, "/"+strings.Join(segs, "/"))
		}
		if int(my) < len(rtNew.Nodes) {
			tn := &rtNew.Nodes[my]
			for _, name := range synth {
				a, ok := tn.Attr(name)
				if !ok || !a.HasValue() || a.Flags&rtmodel.FlagUnknown != 0 {
					continue
				}
				// Rewrite only on a real difference: a declared (not
				// synthesized) value the analyses never overwrite may
				// carry a unit the round-trip would drop.
				if cur, ok := nc.Attrs[name]; ok && cur.HasQuantity &&
					cur.Quantity.Value == a.Value && cur.Quantity.Dim == a.Dim && cur.Raw == a.Raw {
					continue
				}
				nc.Attrs[name] = model.Attr{
					Raw:         a.Raw,
					Quantity:    units.Quantity{Value: a.Value, Dim: a.Dim},
					HasQuantity: true,
				}
			}
		}
		return &nc, true
	}
	clone, _ := rec(system, true)
	return clone, changed, n
}

// renderRTAttr mirrors diff.RenderAttr(a, true) for a runtime
// attribute — the runtime flags encode the same three-way split the
// tree-level rendering distinguishes.
func renderRTAttr(a rtmodel.Attr) string {
	if a.Flags&rtmodel.FlagUnknown != 0 {
		return "?"
	}
	if a.HasValue() {
		return units.Quantity{Value: a.Value, Dim: a.Dim}.String()
	}
	return a.Raw
}
