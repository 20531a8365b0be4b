package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"xpdl/internal/composition"
	"xpdl/internal/energy"
	"xpdl/internal/expr"
	"xpdl/internal/model"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
	"xpdl/internal/serve"
)

// Query classes and their share of the mix, in percent. Energy and
// transfer answers walk the whole composed tree, so their share is kept
// small or they would dominate the mix.
var classes = []struct {
	name   string
	weight int
}{
	{"summary", 10},
	{"element", 15},
	{"select", 35},
	{"eval", 15},
	{"batch", 10},
	{"dispatch", 5},
	{"energy", 5},
	{"transfer", 5},
}

// selectLimit bounds the element references a select answer carries;
// the count still covers every match.
const selectLimit = 16

// request is one concrete query of the mix. want holds its expected
// canonical answer per corpus state (index 0 is the pristine corpus).
type request struct {
	class string
	model string

	elem     string
	sel      string
	expr     string
	vars     map[string]any
	batch    serve.BatchRequest
	dispatch serve.DispatchRequest
	table    string
	inst     string
	ghz      float64
	channel  string
	bytes    int64
	msgs     int64

	want []string
}

// pool is the set of requests one workload draws from, grouped by class.
type pool struct {
	byClass map[string][]*request
	all     []*request
}

// buildPool derives a seeded request pool for each model from its
// resident snapshot. The program sees only the generated requests.
func buildPool(rng *rand.Rand, snaps map[string]*serve.Snapshot) (*pool, error) {
	p := &pool{byClass: map[string][]*request{}}
	for _, id := range []string{smallModel, bigModel} {
		if err := p.addModel(rng, id, snaps[id]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *pool) add(r *request) {
	p.byClass[r.class] = append(p.byClass[r.class], r)
	p.all = append(p.all, r)
}

func (p *pool) addModel(rng *rand.Rand, id string, snap *serve.Snapshot) error {
	sess := snap.Session
	// Requests are stratified by kind so every seed draws a pool of the
	// same shape: one element lookup and one //kind scan per kind (their
	// cost grows with the kind's population), seeded choices only where
	// the cost barely depends on them.
	byKind := map[string][]query.Elem{}
	var walk func(e query.Elem)
	walk = func(e query.Elem) {
		byKind[e.Kind()] = append(byKind[e.Kind()], e)
		for _, c := range e.Children() {
			walk(c)
		}
	}
	walk(sess.Root())
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	// pickOf returns a seeded element of kind k satisfying ok.
	pickOf := func(k string, ok func(query.Elem) bool) (query.Elem, bool) {
		es := byKind[k]
		off := rng.Intn(len(es))
		for i := range es {
			if e := es[(off+i)%len(es)]; ok(e) {
				return e, true
			}
		}
		return query.Elem{}, false
	}

	p.add(&request{class: "summary", model: id})

	var sels []string
	var attrElems []query.Elem
	for _, k := range kinds {
		// Element answers list their children, so the pick is seeded only
		// among elements with the kind's most common child count.
		width := modeWidth(byKind[k])
		if e, ok := pickOf(k, func(e query.Elem) bool { return e.Ident() != "" && len(e.Children()) == width }); ok {
			p.add(&request{class: "element", model: id, elem: e.Ident()})
			if len(e.Attrs()) > 0 {
				attrElems = append(attrElems, e)
			}
		}
		sels = append(sels, "//"+k)
		if e, ok := pickOf(k, func(e query.Elem) bool { return safeLiteral(e.Name()) }); ok {
			sels = append(sels, fmt.Sprintf("//%s[name=%s]", k, e.Name()))
		}
		if e, ok := pickOf(k, func(e query.Elem) bool { return safeLiteral(e.ID()) }); ok {
			sels = append(sels, fmt.Sprintf("//%s[id=%s]", k, e.ID()))
		}
		if e, ok := pickOf(k, func(e query.Elem) bool { return numericAttr(e) != "" }); ok {
			a := numericAttr(e)
			raw, _ := e.GetString(a)
			sels = append(sels, fmt.Sprintf("//%s[%s>=%s]", k, a, raw))
		}
	}
	for _, sel := range sels {
		if _, err := sess.Select(sel); err != nil {
			return fmt.Errorf("%s: generated selector %q: %w", id, sel, err)
		}
		p.add(&request{class: "select", model: id, sel: sel})
	}

	exprs := []struct {
		src  string
		vars map[string]any
	}{
		{"num_cores()", nil},
		{"num_cores() >= 4", nil},
		{"num_cuda_devices() * 2", nil},
		{"total_static_power()", nil},
		{`installed("CUDA_6.0")`, nil},
		{`has_kind("device")`, nil},
		{"x * num_cores() + 1", map[string]any{"x": float64(rng.Intn(9) + 1)}},
	}
	for n := 0; n < 3 && len(attrElems) > 0; n++ {
		e := attrElems[rng.Intn(len(attrElems))]
		a := e.Attrs()[rng.Intn(len(e.Attrs()))]
		exprs = append(exprs, struct {
			src  string
			vars map[string]any
		}{fmt.Sprintf("attr(%q, %q)", e.Ident(), a.Name), nil})
	}
	var evals []*request
	for _, x := range exprs {
		r := &request{class: "eval", model: id, expr: x.src, vars: x.vars}
		evals = append(evals, r)
		p.add(r)
	}

	// Batches cycle through the selector and expression lists, so their
	// composition, like the pool's, does not depend on the seed.
	for b, si, ei := 0, 0, 0; b < 6; b++ {
		var ops []serve.BatchOp
		for i := 0; i < 8; i++ {
			if i%4 == 3 {
				r := evals[ei%len(evals)]
				ops = append(ops, serve.BatchOp{Op: "eval", Expr: r.expr, Vars: r.vars})
				ei++
			} else {
				ops = append(ops, serve.BatchOp{Op: "select", Selector: sels[si%len(sels)], Limit: selectLimit})
				si += 7
			}
		}
		p.add(&request{class: "batch", model: id, batch: serve.BatchRequest{Ops: ops}})
	}

	for d := 0; d < 4; d++ {
		p.add(&request{class: "dispatch", model: id, dispatch: serve.DispatchRequest{
			Component: "gemm",
			Variants: []serve.VariantJSON{
				{Name: "cpu", Selectable: "num_cores() >= 1", Cost: "n / num_cores()"},
				{Name: "gpu", Selectable: "num_cuda_devices() > 0", Cost: "n / (num_cuda_devices() * 400) + 2"},
				{Name: "serial", Cost: "n"},
			},
			Vars: map[string]any{"n": float64(1 + rng.Intn(100000))},
		}})
	}

	// Energy and transfer requests name components of the composed tree.
	var tables, channels []*model.Component
	snap.System.Walk(func(c *model.Component) bool {
		switch c.Kind {
		case "instructions":
			tables = append(tables, c)
		case "channel", "interconnect":
			if c.Ident() != "" {
				channels = append(channels, c)
			}
		}
		return true
	})
	if len(tables) == 0 || len(channels) == 0 {
		return fmt.Errorf("%s: no instruction table or channel to query", id)
	}
	for _, tc := range tables[:1] {
		t, err := energy.TableFromComponent(tc)
		if err != nil {
			return fmt.Errorf("%s: table %s: %w", id, tc.Ident(), err)
		}
		p.add(&request{class: "energy", model: id, table: tc.Ident()})
		names := t.Names()
		for n, tries := 0, 0; n < 5 && tries < 1000; tries++ {
			inst := names[rng.Intn(len(names))]
			ghz := float64(10+rng.Intn(25)) / 10
			if _, ok := t.EnergyAt(inst, ghz); ok {
				p.add(&request{class: "energy", model: id, table: tc.Ident(), inst: inst, ghz: ghz})
				n++
			}
		}
	}
	seen := map[string]bool{}
	for _, c := range channels {
		if !seen[c.Ident()] {
			seen[c.Ident()] = true
			p.add(&request{class: "transfer", model: id, channel: c.Ident(),
				bytes: int64(rng.Intn(1 << 24)), msgs: int64(1 + rng.Intn(64))})
		}
	}
	return nil
}

// modeWidth returns the most common child count among the elements
// with an identifier (the smallest one on ties).
func modeWidth(es []query.Elem) int {
	counts := map[int]int{}
	for _, e := range es {
		if e.Ident() != "" {
			counts[len(e.Children())]++
		}
	}
	best, bestN := 0, 0
	for w, n := range counts {
		if n > bestN || n == bestN && w < best {
			best, bestN = w, n
		}
	}
	return best
}

// numericAttr returns the name of e's first attribute whose raw text is
// a plain number, "" when there is none.
func numericAttr(e query.Elem) string {
	for _, a := range e.Attrs() {
		if _, err := strconv.ParseFloat(a.Raw, 64); err == nil && a.HasValue() && safeLiteral(a.Name) {
			return a.Name
		}
	}
	return ""
}

// safeLiteral reports whether s can stand unquoted in a selector
// predicate.
func safeLiteral(s string) bool {
	for _, r := range s {
		if !(r == '_' || r == '.' || r == '-' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
			return false
		}
	}
	return s != ""
}

// expect appends the expected answer of every request of model id to
// its want list, computed from a resolved snapshot's Session and
// composed tree.
func (p *pool) expect(id string, sess *query.Session, sys *model.Component) error {
	for _, r := range p.all {
		if r.model != id {
			continue
		}
		w, err := r.expected(sess, sys)
		if err != nil {
			return fmt.Errorf("%s %s: expected answer: %w", id, r.class, err)
		}
		r.want = append(r.want, w)
	}
	return nil
}

func (r *request) expected(sess *query.Session, sys *model.Component) (string, error) {
	switch r.class {
	case "summary":
		root := sess.Root()
		return canonSummary(serve.SummaryResponse{Cores: root.NumCores(), CUDADevices: root.NumCUDADevices(),
			StaticPowerW: root.TotalStaticPower().Value, Installed: sess.InstalledList()}), nil
	case "element":
		e, ok := sess.Find(r.elem)
		if !ok {
			return "", fmt.Errorf("element %q not found", r.elem)
		}
		return canonElem(e), nil
	case "select":
		return expectSelect(sess, r.sel)
	case "eval":
		return expectEval(sess, r.expr, r.vars)
	case "batch":
		var b strings.Builder
		for _, op := range r.batch.Ops {
			var s string
			var err error
			if op.Op == "select" {
				s, err = expectSelect(sess, op.Selector)
			} else {
				s, err = expectEval(sess, op.Expr, op.Vars)
			}
			if err != nil {
				return "", err
			}
			b.WriteString(s)
			b.WriteByte(';')
		}
		return b.String(), nil
	case "dispatch":
		return expectDispatch(sess, r.dispatch)
	case "energy":
		c := findComponent(sys, r.table)
		if c == nil {
			return "", fmt.Errorf("table %q not found", r.table)
		}
		t, err := energy.TableFromComponent(c)
		if err != nil {
			return "", err
		}
		resp := serve.EnergyResponse{Table: r.table}
		if r.inst == "" {
			resp.Instructions, resp.Unknowns = t.Names(), t.Unknowns()
		} else {
			e, ok := t.EnergyAt(r.inst, r.ghz)
			if !ok {
				return "", fmt.Errorf("no energy for %s at %g GHz", r.inst, r.ghz)
			}
			resp.Inst, resp.GHz, resp.EnergyJ = r.inst, r.ghz, &e
		}
		return canonEnergy(resp), nil
	case "transfer":
		c := findComponent(sys, r.channel)
		if c == nil {
			return "", fmt.Errorf("channel %q not found", r.channel)
		}
		tc := energy.ChannelCost(c)
		t, e := tc.Cost(r.bytes, r.msgs)
		return canonTransfer(serve.TransferResponse{Channel: r.channel, BandwidthBps: tc.BandwidthBps,
			Bytes: r.bytes, Messages: r.msgs, TimeS: t, EnergyJ: e}), nil
	}
	return "", fmt.Errorf("unknown class %q", r.class)
}

func expectSelect(sess *query.Session, sel string) (string, error) {
	elems, err := sess.Select(sel)
	if err != nil {
		return "", err
	}
	resp := serve.SelectResponse{Count: len(elems)}
	if len(elems) > selectLimit {
		elems = elems[:selectLimit]
	}
	for _, e := range elems {
		resp.Elements = append(resp.Elements, serve.ElementRef{Kind: e.Kind(), Ident: e.Ident(), Path: e.Path()})
	}
	return canonSelect(resp), nil
}

func exprVars(vars map[string]any) map[string]expr.Value {
	if len(vars) == 0 {
		return nil
	}
	out := map[string]expr.Value{}
	for k, v := range vars {
		out[k] = expr.Number(v.(float64))
	}
	return out
}

func expectEval(sess *query.Session, src string, vars map[string]any) (string, error) {
	v, err := expr.Eval(src, sess.Env(exprVars(vars)))
	if err != nil {
		return "", err
	}
	resp := serve.EvalResponse{Text: v.GoString()}
	switch v.Kind {
	case expr.KindNumber:
		resp.Kind, resp.Num = "number", v.Num
	case expr.KindBool:
		resp.Kind, resp.Bool = "bool", v.Bool
	default:
		resp.Kind, resp.Str = "string", v.Str
	}
	return canonEval(resp), nil
}

func expectDispatch(sess *query.Session, req serve.DispatchRequest) (string, error) {
	ctx := composition.Context{Session: sess, Vars: exprVars(req.Vars)}
	comp := &composition.Component{Name: req.Component}
	costs := map[string]float64{}
	for _, vj := range req.Variants {
		costExpr, name := vj.Cost, vj.Name
		comp.Variants = append(comp.Variants, &composition.Variant{
			Name:       vj.Name,
			Selectable: vj.Selectable,
			Cost: func(ctx composition.Context) float64 {
				if costExpr == "" {
					return 0
				}
				v, err := expr.Eval(costExpr, ctx.Env())
				if err != nil || v.Kind != expr.KindNumber {
					return math.MaxFloat64
				}
				costs[name] = v.Num
				return v.Num
			},
		})
	}
	selectable, selErr := comp.Selectable(ctx)
	chosen, err := comp.Select(ctx)
	if err != nil {
		return "", err
	}
	resp := serve.DispatchResponse{Chosen: chosen.Name, Costs: costs}
	for _, v := range selectable {
		resp.Selectable = append(resp.Selectable, v.Name)
	}
	if selErr != nil {
		resp.Warning = selErr.Error()
	}
	return canonDispatch(resp), nil
}

// findComponent returns the first component with the given identifier
// in preorder.
func findComponent(sys *model.Component, ident string) *model.Component {
	var out *model.Component
	sys.Walk(func(c *model.Component) bool {
		if out == nil && c.Ident() == ident {
			out = c
		}
		return out == nil
	})
	return out
}

// do sends the request through c and returns the canonical answer.
func (r *request) do(ctx context.Context, c *serve.Client) (string, error) {
	switch r.class {
	case "summary":
		v, err := c.Summary(ctx, r.model)
		return canonSummary(v), err
	case "element":
		v, err := c.Element(ctx, r.model, r.elem)
		return canonElemJSON(v), err
	case "select":
		v, err := c.Select(ctx, r.model, r.sel, selectLimit)
		return canonSelect(v), err
	case "eval":
		v, err := c.Eval(ctx, r.model, r.expr, r.vars)
		return canonEval(v), err
	case "batch":
		v, err := c.Batch(ctx, r.model, r.batch)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, res := range v.Results {
			switch {
			case res.Error != "":
				b.WriteString("error:" + res.Error)
			case res.Select != nil:
				b.WriteString(canonSelect(*res.Select))
			case res.Eval != nil:
				b.WriteString(canonEval(*res.Eval))
			}
			b.WriteByte(';')
		}
		return b.String(), nil
	case "dispatch":
		v, err := c.Dispatch(ctx, r.model, r.dispatch)
		return canonDispatch(v), err
	case "energy":
		var v serve.EnergyResponse
		var err error
		if r.inst == "" {
			v, err = c.EnergyTable(ctx, r.model, r.table)
		} else {
			v, err = c.EnergyAt(ctx, r.model, r.table, r.inst, r.ghz)
		}
		return canonEnergy(v), err
	case "transfer":
		v, err := c.Transfer(ctx, r.model, r.channel, r.bytes, r.msgs)
		return canonTransfer(v), err
	}
	return "", fmt.Errorf("unknown class %q", r.class)
}

// Canonical answer renderings: one string per answer covering every
// field the API returns, so expected and served answers compare with
// string equality and JSON and binary answers compare with each other.

func fnum(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func canonSummary(v serve.SummaryResponse) string {
	return fmt.Sprintf("%d|%d|%s|%s", v.Cores, v.CUDADevices, fnum(v.StaticPowerW), strings.Join(v.Installed, ","))
}

func canonRefs(b *strings.Builder, refs []serve.ElementRef) {
	for _, r := range refs {
		b.WriteString(r.Kind + "," + r.Ident + "," + r.Path + ";")
	}
}

func canonSelect(v serve.SelectResponse) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(v.Count) + "|")
	canonRefs(&b, v.Elements)
	return b.String()
}

func canonEval(v serve.EvalResponse) string {
	return fmt.Sprintf("%s|%s|%t|%s|%s", v.Kind, fnum(v.Num), v.Bool, v.Str, v.Text)
}

func canonDispatch(v serve.DispatchResponse) string {
	sel := append([]string(nil), v.Selectable...)
	sort.Strings(sel)
	var names []string
	for k := range v.Costs {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(v.Chosen + "|" + strings.Join(sel, ",") + "|")
	for _, k := range names {
		b.WriteString(k + "=" + fnum(v.Costs[k]) + ",")
	}
	b.WriteString("|" + v.Warning)
	return b.String()
}

func canonEnergy(v serve.EnergyResponse) string {
	e := "-"
	if v.EnergyJ != nil {
		e = fnum(*v.EnergyJ)
	}
	return fmt.Sprintf("%s|%s|%s|%s|%s|%s", v.Table, strings.Join(v.Instructions, ","),
		strings.Join(v.Unknowns, ","), v.Inst, fnum(v.GHz), e)
}

func canonTransfer(v serve.TransferResponse) string {
	return fmt.Sprintf("%s|%s|%d|%d|%s|%s", v.Channel, fnum(v.BandwidthBps), v.Bytes, v.Messages,
		fnum(v.TimeS), fnum(v.EnergyJ))
}

// canonAttr renders one attribute as name=raw/unknown/value.
func canonAttr(b *strings.Builder, name, raw string, unknown bool, value *float64) {
	b.WriteString(name + "=" + raw)
	if unknown {
		b.WriteString("/?")
	}
	if value != nil {
		b.WriteString("/" + fnum(*value))
	}
	b.WriteByte(';')
}

func canonElemHead(b *strings.Builder, kind, id, name, typ, path string) {
	b.WriteString(kind + "|" + id + "|" + name + "|" + typ + "|" + path + "|")
}

func canonElem(e query.Elem) string {
	var b strings.Builder
	canonElemHead(&b, e.Kind(), e.ID(), e.Name(), e.TypeName(), e.Path())
	attrs := append([]rtmodel.Attr(nil), e.Attrs()...)
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
	for _, a := range attrs {
		unknown := a.Flags&rtmodel.FlagUnknown != 0
		var v *float64
		if !unknown && a.HasValue() {
			x := a.Value
			v = &x
		}
		canonAttr(&b, a.Name, a.Raw, unknown, v)
	}
	b.WriteByte('|')
	var refs []serve.ElementRef
	for _, c := range e.Children() {
		refs = append(refs, serve.ElementRef{Kind: c.Kind(), Ident: c.Ident(), Path: c.Path()})
	}
	canonRefs(&b, refs)
	return b.String()
}

func canonElemJSON(v serve.ElementJSON) string {
	var b strings.Builder
	canonElemHead(&b, v.Kind, v.ID, v.Name, v.Type, v.Path)
	names := make([]string, 0, len(v.Attrs))
	for k := range v.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a := v.Attrs[k]
		canonAttr(&b, k, a.Raw, a.Unknown, a.Value)
	}
	b.WriteByte('|')
	canonRefs(&b, v.Children)
	return b.String()
}

// sequence draws a seeded request stream from the pool with the class
// weights above, restricted to the given models.
type sequence struct {
	rng     *rand.Rand
	byClass map[string][]*request
	total   int
}

func newSequence(seed int64, p *pool, models ...string) *sequence {
	s := &sequence{rng: rand.New(rand.NewSource(seed)), byClass: map[string][]*request{}}
	for _, c := range classes {
		for _, r := range p.byClass[c.name] {
			for _, m := range models {
				if r.model == m {
					s.byClass[c.name] = append(s.byClass[c.name], r)
				}
			}
		}
		s.total += c.weight
	}
	return s
}

func (s *sequence) next() *request {
	n := s.rng.Intn(s.total)
	for _, c := range classes {
		if n < c.weight {
			rs := s.byClass[c.name]
			return rs[s.rng.Intn(len(rs))]
		}
		n -= c.weight
	}
	panic("unreachable")
}
