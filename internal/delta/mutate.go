package delta

import (
	"sort"
	"strconv"
	"strings"

	"xpdl/internal/model"
	"xpdl/internal/resolve"
	"xpdl/internal/units"
)

// Mutation is one deterministic single-descriptor edit the
// differential test battery (and the fuzz seed corpus) applies: a
// mutated copy of the descriptor plus the class of change it
// represents. Classes attr-edit are expected to ride the delta patch
// path; every other class must trigger a fallback to full resolution —
// either way the patched and fully re-resolved results must agree.
type Mutation struct {
	// Name uniquely labels the mutation, e.g. "attr-edit:Xeon1:frequency".
	Name string
	// Class is the mutation kind: attr-edit, attr-edit-nested,
	// attr-add, attr-remove, element-add, element-remove, rename,
	// reorder.
	Class string
	// Comp is the mutated descriptor tree (the input is never mutated).
	Comp *model.Component
}

// Mutations derives the deterministic single-descriptor mutation suite
// of one descriptor: attribute edits (patchable), plus structural
// edits of every class the delta analysis must refuse. Classes that do
// not apply to the descriptor's shape (no children to remove, no
// numeric attribute to edit) are simply absent from the result.
func Mutations(c *model.Component) []Mutation {
	var out []Mutation
	ident := segOf(c)
	add := func(class, what string, mutate func(m *model.Component) bool) {
		m := c.Clone()
		if !mutate(m) {
			return
		}
		name := class + ":" + ident
		if what != "" {
			name += ":" + what
		}
		out = append(out, Mutation{Name: name, Class: class, Comp: m})
	}

	// attr-edit: numeric root attributes — the bounded, patchable class.
	edited := 0
	for _, k := range sortedAttrNames(c.Attrs) {
		if edited >= 2 {
			break
		}
		na, ok := scaleAttr(c.Attrs[k])
		if !ok {
			continue
		}
		k, na := k, na
		add("attr-edit", k, func(m *model.Component) bool {
			m.SetAttr(k, na)
			return true
		})
		edited++
	}

	// attr-edit-nested: the same edit on a non-root element, which the
	// delta analysis cannot bound (structural fallback).
	add("attr-edit-nested", "", func(m *model.Component) bool {
		done := false
		m.Walk(func(x *model.Component) bool {
			if done || x == m {
				return !done
			}
			for _, k := range sortedAttrNames(x.Attrs) {
				if na, ok := scaleAttr(x.Attrs[k]); ok {
					x.SetAttr(k, na)
					done = true
					return false
				}
			}
			return true
		})
		return done
	})

	// attr-add / attr-remove at the root: attribute presence changes.
	add("attr-add", "", func(m *model.Component) bool {
		m.SetAttr("delta_probe", model.Attr{
			Raw: "7", Quantity: units.Quantity{Value: 7}, HasQuantity: true,
		})
		return true
	})
	add("attr-remove", "", func(m *model.Component) bool {
		for _, k := range sortedAttrNames(m.Attrs) {
			if strings.HasSuffix(k, "_unit") {
				continue // keep companion units paired with their value
			}
			m.DeleteAttr(k)
			return true
		}
		return false
	})

	// element-add: duplicate the last child under a fresh identifier.
	add("element-add", "", func(m *model.Component) bool {
		if len(m.Children) == 0 {
			return false
		}
		dup := m.Children[len(m.Children)-1].Clone()
		if dup.ID != "" {
			dup.ID += "_dup"
		} else if dup.Name != "" {
			dup.Name += "_dup"
		}
		m.Children = append(m.Children, dup)
		return true
	})

	// element-remove: drop the last child subtree.
	add("element-remove", "", func(m *model.Component) bool {
		if len(m.Children) == 0 {
			return false
		}
		m.Children = m.Children[:len(m.Children)-1]
		return true
	})

	// rename: change the identifier of the first identified child.
	add("rename", "", func(m *model.Component) bool {
		for _, ch := range m.Children {
			if ch.ID != "" {
				ch.ID += "_r"
				return true
			}
			if ch.Name != "" {
				ch.Name += "_r"
				return true
			}
		}
		return false
	})

	// reorder: rotate the root's children by one position.
	add("reorder", "", func(m *model.Component) bool {
		if len(m.Children) < 2 {
			return false
		}
		m.Children = append(m.Children[1:], m.Children[0])
		return true
	})

	return out
}

// scaleAttr derives a changed-but-well-formed replacement for a
// numeric attribute: the raw value scaled to 2x+1 (never a fixed
// point), re-normalized against the attribute's declared unit so the
// canonical rendering round-trips through the parser. Attributes whose
// raw text could be a parameter reference, unknowns, and non-numeric
// values are skipped.
func scaleAttr(a model.Attr) (model.Attr, bool) {
	if a.Unknown || resolve.IdentLike(a.Raw) {
		return model.Attr{}, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(a.Raw), 64)
	if err != nil {
		return model.Attr{}, false
	}
	raw := strconv.FormatFloat(f*2+1, 'g', -1, 64)
	na := model.Attr{Raw: raw, Unit: a.Unit}
	if q, err := units.Parse(raw, a.Unit); err == nil {
		if a.Unit == "" {
			q.Dim = a.Quantity.Dim
		}
		na.Quantity = q
		na.HasQuantity = true
	}
	return na, true
}

func sortedAttrNames(attrs map[string]model.Attr) []string {
	out := make([]string, 0, len(attrs))
	for k := range attrs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
