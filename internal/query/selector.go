package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Select evaluates a path selector over the model tree — a compact way
// for tools and composition code to address sets of model elements
// without writing traversal loops. The grammar:
//
//	segment       = kind | "*"            element kind, or any
//	segment[pred] = filtered segment
//	pred          = attr op value | index
//	op            = "=" | "!=" | "<" | ">" | "<=" | ">="
//	index         = decimal (position among the segment's matches)
//
// Segments are joined with "/" (children) or "//" (descendants at any
// depth). A leading "/" anchors at the session root; a leading "//"
// searches the whole tree. The pseudo-attributes id, name and type
// match the element identity fields. Examples:
//
//	//cache[name=L3]
//	/system/node[0]/device
//	//device[type=Nvidia_K20c]
//	//core[frequency>=2e9]
//	//power_domain[enableSwitchOff=false]
//
// Positional predicates apply across the combined, deduplicated match
// list of their segment, matching how users count results.
//
// Comparison semantics: when the predicate value parses as a number,
// the attribute's normalized numeric value (or its raw string, if that
// parses) is compared numerically. Otherwise "=" and "!=" compare the
// raw strings exactly. The ordered operators (<, <=, >, >=) are
// defined only over numbers: when either side is non-numeric the
// predicate is false — never an error. A missing attribute matches
// "!=" against any value and fails every other operator.
//
// Selectors are compiled once into a Plan and cached in the bounded
// process-wide DefaultPlanCache, and sessions answer the common deep
// shapes (//kind, //kind[name=…], //kind[id=…], //kind[attr op v])
// from per-snapshot hash indexes instead of tree walks; results are
// identical to the walker's in content and order.
func (s *Session) Select(selector string) ([]Elem, error) {
	root := s.Root()
	if !root.Valid() {
		return nil, nil
	}
	return root.Select(selector)
}

// Select evaluates the selector relative to this element; see
// Session.Select for the grammar.
func (e Elem) Select(selector string) ([]Elem, error) {
	mSelectorEvals.Inc()
	p, err := defaultPlans.Get(selector)
	if err != nil {
		return nil, err
	}
	return p.RunFrom(e)
}

// SelectOne returns the single element matched by the selector; it
// fails when the match count is not exactly one.
func (s *Session) SelectOne(selector string) (Elem, error) {
	got, err := s.Select(selector)
	if err != nil {
		return Elem{}, err
	}
	if len(got) != 1 {
		return Elem{}, fmt.Errorf("query: selector %q matched %d elements, want 1", selector, len(got))
	}
	return got[0], nil
}

type segment struct {
	kind    string // "" or "*" matches any
	deep    bool   // descendant axis ("//")
	index   int    // positional predicate; -1 = none
	attr    string
	op      string
	value   string
	hasPred bool
}

func parseSelector(sel string) ([]segment, error) {
	sel = strings.TrimSpace(sel)
	if sel == "" {
		return nil, fmt.Errorf("query: empty selector")
	}
	var segs []segment
	deep := false
	i := 0
	// Leading axis.
	switch {
	case strings.HasPrefix(sel, "//"):
		deep = true
		i = 2
	case strings.HasPrefix(sel, "/"):
		i = 1
	}
	rest := sel[i:]
	for rest != "" {
		// Next segment text up to the following axis separator.
		var segText string
		if idx := strings.Index(rest, "/"); idx >= 0 {
			segText = rest[:idx]
			rest = rest[idx:]
		} else {
			segText = rest
			rest = ""
		}
		if segText == "" {
			return nil, fmt.Errorf("query: empty segment in selector %q", sel)
		}
		sg, err := parseSegment(segText)
		if err != nil {
			return nil, err
		}
		sg.deep = deep
		segs = append(segs, sg)
		// Determine the axis to the next segment.
		deep = false
		stripped := false
		if strings.HasPrefix(rest, "//") {
			deep = true
			rest = rest[2:]
			stripped = true
		} else if strings.HasPrefix(rest, "/") {
			rest = rest[1:]
			stripped = true
		}
		if stripped && rest == "" {
			return nil, fmt.Errorf("query: selector %q ends with a path separator", sel)
		}
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("query: selector %q has no segments", sel)
	}
	return segs, nil
}

func parseSegment(text string) (segment, error) {
	sg := segment{index: -1}
	name := text
	if open := strings.Index(text, "["); open >= 0 {
		if !strings.HasSuffix(text, "]") {
			return segment{}, fmt.Errorf("query: unterminated predicate in %q", text)
		}
		name = text[:open]
		pred := text[open+1 : len(text)-1]
		if pred == "" {
			return segment{}, fmt.Errorf("query: empty predicate in %q", text)
		}
		if n, err := strconv.Atoi(pred); err == nil {
			if n < 0 {
				return segment{}, fmt.Errorf("query: negative index in %q", text)
			}
			sg.index = n
		} else {
			op := ""
			for _, cand := range []string{"!=", "<=", ">=", "=", "<", ">"} {
				if idx := strings.Index(pred, cand); idx > 0 {
					sg.attr = strings.TrimSpace(pred[:idx])
					sg.value = strings.TrimSpace(pred[idx+len(cand):])
					op = cand
					break
				}
			}
			if op == "" {
				return segment{}, fmt.Errorf("query: cannot parse predicate %q", pred)
			}
			sg.op = op
			sg.hasPred = true
			if sg.attr == "" || sg.value == "" {
				return segment{}, fmt.Errorf("query: incomplete predicate %q", pred)
			}
		}
	}
	if name == "" {
		return segment{}, fmt.Errorf("query: segment %q has no kind", text)
	}
	sg.kind = name
	return sg, nil
}

func (sg segment) apply(from Elem) []Elem {
	var out []Elem
	consider := func(x Elem) {
		if sg.kind != "*" && x.Kind() != sg.kind {
			return
		}
		if sg.hasPred && !sg.matchPred(x) {
			return
		}
		out = append(out, x)
	}
	for _, c := range from.node().Children {
		x := Elem{s: from.s, idx: c, ok: true}
		if sg.deep {
			x.walk(func(y Elem) bool {
				consider(y)
				return true
			})
		} else {
			consider(x)
		}
	}
	return out
}

// matchPred evaluates the segment's attribute predicate against one
// element. The semantics are total — no input combination errors:
//
//   - numeric value, numeric attribute  → numeric comparison
//   - otherwise, "="/"!="               → exact raw-string comparison
//   - otherwise, ordered op (<, >=, …)  → false (non-numeric side)
//   - missing attribute                 → true only for "!="
func (sg segment) matchPred(x Elem) bool {
	// Identity pseudo-attributes first.
	var str string
	var strOK bool
	switch sg.attr {
	case "id":
		str, strOK = x.ID(), true
	case "name":
		str, strOK = x.Name(), true
	case "type":
		str, strOK = x.TypeName(), true
	default:
		str, strOK = x.GetString(sg.attr)
	}
	// Numeric comparison when both sides parse as numbers.
	want, errW := strconv.ParseFloat(sg.value, 64)
	if errW == nil {
		if have, ok := x.GetFloat(sg.attr); ok {
			return compare(have, want, sg.op)
		}
		if strOK {
			if have, err := strconv.ParseFloat(strings.TrimSpace(str), 64); err == nil {
				return compare(have, want, sg.op)
			}
		}
	}
	if !strOK {
		return sg.op == "!=" // absent attribute differs from any value
	}
	switch sg.op {
	case "=":
		return str == sg.value
	case "!=":
		return str != sg.value
	default:
		// Ordered comparison where either side is non-numeric: the
		// predicate is simply false, never an error — selectors must
		// stay total over arbitrary models.
		return false
	}
}

func compare(a, b float64, op string) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func dedupe(elems []Elem) []Elem {
	seen := map[int32]bool{}
	out := elems[:0]
	for _, e := range elems {
		if !seen[e.idx] {
			seen[e.idx] = true
			out = append(out, e)
		}
	}
	return out
}
