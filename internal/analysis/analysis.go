// Package analysis implements the static model analysis of the XPDL
// processing tool (Section IV): synthesized attributes computed by
// attribute-grammar-style rules over the composed model tree (Section
// III-D), interconnect bandwidth downgrading, and the configurable
// filtering of uninteresting values before the lightweight runtime
// model is emitted.
package analysis

import (
	"fmt"
	"strings"

	"xpdl/internal/model"
	"xpdl/internal/units"
)

// Aggregation selects how a synthesized attribute combines child values.
type Aggregation int

// Aggregation modes.
const (
	Sum Aggregation = iota
	Min
	Max
	Count
)

// SynthRule computes one synthesized attribute: for every node of one
// of the given kinds (empty = all kinds), aggregate the Source
// attribute over the node's subtree and store the result as Target.
//
// This mirrors the paper's analogy to attribute grammars: directly
// given attribute values at the leaves, synthesized values at inner
// nodes.
type SynthRule struct {
	Target string      // attribute to write, e.g. "static_power_total"
	Source string      // attribute (or kind for Count) to aggregate
	Agg    Aggregation // combination rule
	Kinds  []string    // node kinds to annotate; empty = all
	Dim    units.Dimension
}

func (r SynthRule) appliesTo(kind string) bool {
	if len(r.Kinds) == 0 {
		return true
	}
	for _, k := range r.Kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// DefaultRules returns the synthesized-attribute rules the paper calls
// out: total static power per subtree, core counts, and device counts.
func DefaultRules() []SynthRule {
	return []SynthRule{
		{Target: "static_power_total", Source: "static_power", Agg: Sum,
			Kinds: []string{"system", "cluster", "node", "socket", "cpu", "device", "gpu"},
			Dim:   units.Power},
		{Target: "num_cores", Source: "core", Agg: Count,
			Kinds: []string{"system", "cluster", "node", "socket", "cpu", "device", "gpu"}},
		{Target: "num_devices", Source: "device", Agg: Count,
			Kinds: []string{"system", "cluster", "node"}},
	}
}

// BandwidthSource and BandwidthTarget name the attributes the
// bandwidth-downgrading analysis reads and writes: DowngradeBandwidth
// clamps max_bandwidth against the endpoints' declared limits and
// stores the result as effective_bandwidth.
const (
	BandwidthSource = "max_bandwidth"
	BandwidthTarget = "effective_bandwidth"
)

// RollupSources returns the set of leaf attributes the rules
// aggregate: editing one of them invalidates synthesized values on
// every ancestor, so incremental re-resolution must re-run Annotate
// when such an attribute changes. Count rules aggregate element kinds,
// not attributes, and therefore contribute nothing here.
func RollupSources(rules []SynthRule) map[string]bool {
	out := map[string]bool{}
	for _, r := range rules {
		if r.Agg != Count && r.Source != "" {
			out[r.Source] = true
		}
	}
	return out
}

// RollupTargets returns the set of synthesized attributes the rules
// write. A descriptor edit naming one of them collides with the
// analysis output — the attribute grammar owns that value, so a patch
// of the declared value cannot be bounded and callers must fall back
// to a full resolve.
func RollupTargets(rules []SynthRule) map[string]bool {
	out := map[string]bool{}
	for _, r := range rules {
		if r.Target != "" {
			out[r.Target] = true
		}
	}
	return out
}

// Annotate applies the rules bottom-up over the tree, storing
// synthesized attributes on every matching node. It returns the number
// of attributes written.
func Annotate(root *model.Component, rules []SynthRule) int {
	written := 0
	for _, r := range rules {
		switch r.Agg {
		case Count:
			written += annotateCount(root, r)
		default:
			written += annotateQuantity(root, r)
		}
	}
	return written
}

func annotateQuantity(c *model.Component, r SynthRule) int {
	written := 0
	var rec func(x *model.Component) (units.Quantity, bool)
	rec = func(x *model.Component) (units.Quantity, bool) {
		total, have := x.QuantityAttr(r.Source)
		for _, ch := range x.Children {
			v, ok := rec(ch)
			if !ok {
				continue
			}
			switch r.Agg {
			case Sum:
				if !have {
					total, have = v, true
				} else {
					total.Value += v.Value
				}
			case Min:
				if !have || v.Value < total.Value {
					total, have = v, true
				}
			case Max:
				if !have || v.Value > total.Value {
					total, have = v, true
				}
			}
		}
		if have && r.appliesTo(x.Kind) {
			q := total
			q.Dim = r.Dim
			x.SetQuantity(r.Target, q)
			written++
		}
		return total, have
	}
	rec(c)
	return written
}

func annotateCount(c *model.Component, r SynthRule) int {
	written := 0
	var rec func(x *model.Component) int
	rec = func(x *model.Component) int {
		// Children of a power domain are references to hardware
		// entities, not additional hardware (Listing 12) — skip them.
		if x.Kind == "power_domain" {
			return 0
		}
		n := 0
		if x.Kind == r.Source {
			n++
		}
		for _, ch := range x.Children {
			n += rec(ch)
		}
		if r.appliesTo(x.Kind) {
			x.SetQuantity(r.Target, units.Quantity{Value: float64(n)})
			written++
		}
		return n
	}
	rec(c)
	return written
}

// TotalStaticPower sums the static_power attribute over the subtree.
func TotalStaticPower(c *model.Component) units.Quantity {
	total := units.Quantity{Dim: units.Power}
	c.Walk(func(x *model.Component) bool {
		if q, ok := x.QuantityAttr("static_power"); ok {
			total.Value += q.Value
		}
		return true
	})
	return total
}

// CountCores returns the number of hardware <core> elements in the
// subtree, excluding the member references inside power domains.
func CountCores(c *model.Component) int {
	n := 0
	c.Walk(func(x *model.Component) bool {
		if x.Kind == "power_domain" {
			return false
		}
		if x.Kind == "core" {
			n++
		}
		return true
	})
	return n
}

// CountCUDADevices counts devices/gpus that advertise a CUDA
// programming model — the paper's example of a generated model analysis
// function (Section IV, category 4).
func CountCUDADevices(c *model.Component) int {
	n := 0
	c.Walk(func(x *model.Component) bool {
		if x.Kind != "device" && x.Kind != "gpu" {
			return true
		}
		if pm := x.FirstChildKind("programming_model"); pm != nil {
			if strings.Contains(strings.ToLower(pm.AttrRaw("type")), "cuda") {
				n++
				return false // do not double-count nested devices
			}
		}
		return true
	})
	return n
}

// ---- Bandwidth downgrading ----

// DowngradeReport records one interconnect whose effective bandwidth was
// reduced to the slowest participating component.
type DowngradeReport struct {
	Interconnect string
	Channel      string
	Declared     units.Quantity
	Effective    units.Quantity
	LimitedBy    string
}

// String renders the report entry for tool output.
func (d DowngradeReport) String() string {
	where := d.Interconnect
	if d.Channel != "" {
		where += "." + d.Channel
	}
	return fmt.Sprintf("%s: %s -> %s (limited by %s)", where, d.Declared, d.Effective, d.LimitedBy)
}

// DowngradeBandwidth performs the static analysis the paper gives as its
// example (Section IV): the effective bandwidth of a communication link
// is determined by the slowest hardware component involved. For every
// interconnect instance with head/tail endpoints, each channel's (or the
// link's own) max_bandwidth is clamped to the endpoints' max_bandwidth
// where those are declared, and the result is stored as
// effective_bandwidth.
func DowngradeBandwidth(root *model.Component) []DowngradeReport {
	var reports []DowngradeReport
	root.Walk(func(c *model.Component) bool {
		if c.Kind != "interconnect" {
			return true
		}
		head, tail := c.AttrRaw("head"), c.AttrRaw("tail")
		if head == "" && tail == "" {
			return true
		}
		limit, limiter, haveLimit := endpointLimit(root, head)
		if l2, who, ok := endpointLimit(root, tail); ok && (!haveLimit || l2.Value < limit.Value) {
			limit, limiter, haveLimit = l2, who, true
		}
		clamp := func(target *model.Component, chName string) {
			bw, ok := target.QuantityAttr("max_bandwidth")
			if !ok {
				if haveLimit {
					target.SetQuantity("effective_bandwidth", limit)
					reports = append(reports, DowngradeReport{
						Interconnect: c.Ident(), Channel: chName,
						Declared: units.Quantity{Dim: units.Bandwidth}, Effective: limit, LimitedBy: limiter,
					})
				}
				return
			}
			eff := bw
			who := ""
			if haveLimit && limit.Value < bw.Value {
				eff = limit
				who = limiter
			}
			target.SetQuantity("effective_bandwidth", eff)
			if who != "" {
				reports = append(reports, DowngradeReport{
					Interconnect: c.Ident(), Channel: chName,
					Declared: bw, Effective: eff, LimitedBy: who,
				})
			}
		}
		channels := c.ChildrenKind("channel")
		if len(channels) == 0 {
			clamp(c, "")
		}
		for _, ch := range channels {
			clamp(ch, ch.Name)
		}
		return true
	})
	return reports
}

// endpointLimit finds the bandwidth capability of an endpoint component:
// its own max_bandwidth attribute if declared, else none.
func endpointLimit(root *model.Component, id string) (units.Quantity, string, bool) {
	if id == "" {
		return units.Quantity{}, "", false
	}
	ep := root.FindByID(id)
	if ep == nil {
		return units.Quantity{}, "", false
	}
	if q, ok := ep.QuantityAttr("max_bandwidth"); ok {
		return q, id, true
	}
	return units.Quantity{}, "", false
}

// ---- Value filtering ----

// FilterRule decides whether an attribute is kept in the runtime model.
// Return false to drop the attribute.
type FilterRule func(kind, attr string, a model.Attr) bool

// DropUnknown removes attributes that still carry the "?" placeholder —
// they were not filled by microbenchmarking and are of no use at
// runtime.
func DropUnknown(_ string, _ string, a model.Attr) bool { return !a.Unknown }

// DropAttrs builds a rule dropping the listed attribute names.
func DropAttrs(names ...string) FilterRule {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return func(_, attr string, _ model.Attr) bool { return !set[attr] }
}

// Filter applies all rules over the tree, removing any attribute some
// rule rejects. It returns the number of attributes removed.
func Filter(root *model.Component, rules ...FilterRule) int {
	removed := 0
	root.Walk(func(c *model.Component) bool {
		for name, a := range c.Attrs {
			for _, r := range rules {
				if !r(c.Kind, name, a) {
					c.DeleteAttr(name)
					removed++
					break
				}
			}
		}
		return true
	})
	return removed
}

// Stats summarizes a composed model for tool output and experiments.
type Stats struct {
	Components int
	ByKind     map[string]int
	Attributes int
}

// Summarize walks the tree and tallies component and attribute counts.
func Summarize(root *model.Component) Stats {
	s := Stats{ByKind: map[string]int{}}
	root.Walk(func(c *model.Component) bool {
		s.Components++
		s.ByKind[c.Kind]++
		s.Attributes += len(c.Attrs)
		return true
	})
	return s
}
