package analysis

import (
	"fmt"

	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// This file re-implements the two value-writing analyses — synthesized
// attribute rollups and bandwidth downgrading — directly over the flat
// runtime model, for the incremental re-resolution path: after a
// bounded descriptor patch, the runtime model can be re-annotated in
// place instead of rebuilt from the composed tree, which skips the
// rtmodel.Build walk entirely. The semantics must match the
// tree-level Annotate/DowngradeBandwidth bit for bit (same fold order,
// same formatting, same attribute ordering), because snapshot
// fingerprints — and the delta≡full differential battery — compare the
// two paths' runtime models for exact equality.
//
// Callers must own the model's Nodes slice (the node structs are
// mutated); the per-node Attrs slices may still be shared with a
// predecessor model, as they are after rtmodel.Model.Fork —
// setQuantityRT gives a node a new Attrs slice at every write.

// AnnotateRT applies the rules bottom-up over the runtime model,
// mirroring Annotate over the composed tree. It returns the number of
// attributes written.
func AnnotateRT(m *rtmodel.Model, rules []SynthRule) int {
	written := 0
	for _, r := range rules {
		switch r.Agg {
		case Count:
			written += annotateCountRT(m, r)
		default:
			written += annotateQuantityRT(m, r)
		}
	}
	return written
}

func annotateQuantityRT(m *rtmodel.Model, r SynthRule) int {
	written := 0
	var rec func(i int32) (float64, bool)
	rec = func(i int32) (float64, bool) {
		n := &m.Nodes[i]
		var total float64
		have := false
		if a, ok := n.Attr(r.Source); ok && a.HasValue() {
			total, have = a.Value, true
		}
		// Fold children in declaration order: float addition is not
		// associative, so the fold order must match annotateQuantity's
		// for the results to compare equal.
		for _, ch := range n.Children {
			v, ok := rec(ch)
			if !ok {
				continue
			}
			switch r.Agg {
			case Sum:
				if !have {
					total, have = v, true
				} else {
					total += v
				}
			case Min:
				if !have || v < total {
					total, have = v, true
				}
			case Max:
				if !have || v > total {
					total, have = v, true
				}
			}
		}
		if have && r.appliesTo(n.Kind) {
			setQuantityRT(n, r.Target, units.Quantity{Value: total, Dim: r.Dim})
			written++
		}
		return total, have
	}
	if len(m.Nodes) > 0 {
		rec(0)
	}
	return written
}

func annotateCountRT(m *rtmodel.Model, r SynthRule) int {
	written := 0
	var rec func(i int32) int
	rec = func(i int32) int {
		nd := &m.Nodes[i]
		// Children of a power domain are references to hardware
		// entities, not additional hardware — skip them (annotateCount).
		if nd.Kind == "power_domain" {
			return 0
		}
		n := 0
		if nd.Kind == r.Source {
			n++
		}
		for _, ch := range nd.Children {
			n += rec(ch)
		}
		if r.appliesTo(nd.Kind) {
			setQuantityRT(nd, r.Target, units.Quantity{Value: float64(n)})
			written++
		}
		return n
	}
	if len(m.Nodes) > 0 {
		rec(0)
	}
	return written
}

// DowngradeBandwidthRT mirrors DowngradeBandwidth over the runtime
// model: for every interconnect with head/tail endpoints, clamp each
// channel's (or the link's own) max_bandwidth to the endpoints'
// declared limits and store the result as effective_bandwidth. The
// report list tree-level callers consume is not reproduced — the delta
// path discards it.
func DowngradeBandwidthRT(m *rtmodel.Model) {
	for i := range m.Nodes {
		c := &m.Nodes[i]
		if c.Kind != "interconnect" {
			continue
		}
		head, tail := rtAttrRaw(c, "head"), rtAttrRaw(c, "tail")
		if head == "" && tail == "" {
			continue
		}
		limit, haveLimit := endpointLimitRT(m, head)
		if l2, ok := endpointLimitRT(m, tail); ok && (!haveLimit || l2.Value < limit.Value) {
			limit, haveLimit = l2, true
		}
		clamp := func(t *rtmodel.Node) {
			bw, ok := t.Attr("max_bandwidth")
			if !ok || !bw.HasValue() {
				if haveLimit {
					setQuantityRT(t, BandwidthTarget, limit)
				}
				return
			}
			eff := units.Quantity{Value: bw.Value, Dim: bw.Dim}
			if haveLimit && limit.Value < bw.Value {
				eff = limit
			}
			setQuantityRT(t, BandwidthTarget, eff)
		}
		channels := 0
		for _, ci := range c.Children {
			if m.Nodes[ci].Kind == "channel" {
				channels++
				clamp(&m.Nodes[ci])
			}
		}
		if channels == 0 {
			clamp(c)
		}
	}
}

// endpointLimitRT finds the bandwidth capability of an endpoint: the
// max_bandwidth of the first preorder node matching the identifier
// (the runtime model's node order is the composed tree's preorder, so
// this matches Component.FindByID).
func endpointLimitRT(m *rtmodel.Model, id string) (units.Quantity, bool) {
	if id == "" {
		return units.Quantity{}, false
	}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		if n.ID == id || (n.ID == "" && n.Name == id) {
			if a, ok := n.Attr("max_bandwidth"); ok && a.HasValue() {
				return units.Quantity{Value: a.Value, Dim: a.Dim}, true
			}
			return units.Quantity{}, false
		}
	}
	return units.Quantity{}, false
}

func rtAttrRaw(n *rtmodel.Node, name string) string {
	a, _ := n.Attr(name)
	return a.Raw
}

// setQuantityRT stores a synthesized quantity on a runtime node the
// way Component.SetQuantity followed by rtmodel.Build would: Raw is
// the %g rendering, no unit, FlagHasValue set, and the attribute slot
// keeps the name-sorted order Build produces. The node gets a new
// Attrs slice; the old one is never written through, because a
// patched model (rtmodel.Model.Fork) shares its Attrs with the
// predecessor snapshot, and a write in place would change that too.
func setQuantityRT(n *rtmodel.Node, name string, q units.Quantity) {
	a := rtmodel.Attr{
		Name:  name,
		Raw:   fmt.Sprintf("%g", q.Value),
		Value: q.Value,
		Dim:   q.Dim,
		Flags: rtmodel.FlagHasValue,
	}
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			attrs := append([]rtmodel.Attr(nil), n.Attrs...)
			attrs[i] = a
			n.Attrs = attrs
			return
		}
	}
	at := len(n.Attrs)
	for i := range n.Attrs {
		if n.Attrs[i].Name > name {
			at = i
			break
		}
	}
	attrs := make([]rtmodel.Attr, 0, len(n.Attrs)+1)
	attrs = append(attrs, n.Attrs[:at]...)
	attrs = append(attrs, a)
	attrs = append(attrs, n.Attrs[at:]...)
	n.Attrs = attrs
}
