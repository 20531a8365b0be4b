package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"xpdl/internal/core"
	"xpdl/internal/delta"
	"xpdl/internal/model"
	"xpdl/internal/obs"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
	"xpdl/internal/serve"
)

// ladder accumulates the per-layer breakdown of traced operations of
// one kind (cold loads or edits). Every traced operation contributes
// one self time per layer; the layers of one operation plus its
// unattributed remainder sum to the operation's wall time.
type ladder struct {
	name   string
	order  []string
	self   map[string][]float64 // layer -> self ms per op
	vals   map[string][]float64 // other per-op values (totals, alloc MB)
	wall   []float64
	unattr []float64 // |unattributed| / wall per op
}

func newLadder(name string) *ladder {
	return &ladder{name: name, self: map[string][]float64{}, vals: map[string][]float64{}}
}

// addOp records one operation's layer self times (ms) against its
// wall time.
func (l *ladder) addOp(wall time.Duration, layers [][2]any) {
	var sum float64
	for _, kv := range layers {
		name, v := kv[0].(string), kv[1].(float64)
		if _, ok := l.self[name]; !ok {
			l.order = append(l.order, name)
		}
		l.self[name] = append(l.self[name], v)
		sum += v
	}
	w := durMS(wall)
	l.wall = append(l.wall, w)
	l.unattr = append(l.unattr, math.Abs(w-sum)/w)
}

func (l *ladder) val(name string, v float64) { l.vals[name] = append(l.vals[name], v) }

func (l *ladder) med(name string) float64 {
	if xs, ok := l.vals[name]; ok {
		return median(xs)
	}
	return median(l.self[name])
}

// report prints the ladder: median self time of every layer, its share
// of the median wall time, and the unattributed remainder.
func (l *ladder) report(w func(format string, args ...any)) {
	if len(l.wall) == 0 {
		return
	}
	wall := median(l.wall)
	w("ladder %s: %d traced ops, median wall %.2f ms", l.name, len(l.wall), wall)
	for _, name := range l.order {
		m := median(l.self[name])
		w("  %-28s self %9.3f ms  %5.1f%%", name, m, 100*m/wall)
	}
	w("  %-28s %9.2f%% of op wall time (median over ops)", "unattributed", 100*median(l.unattr))
}

// child returns the first child span named name.
func child(s obs.SpanSnapshot, name string) (obs.SpanSnapshot, bool) {
	for _, c := range s.Children {
		if c.Name == name {
			return c, true
		}
	}
	return obs.SpanSnapshot{}, false
}

func spanMS(s obs.SpanSnapshot) float64 { return float64(s.DurationNS) / 1e6 }

// handlerSpan waits for the server to retain the trace of a forced
// sampled request (it is added after the response is written) and
// returns its handler span.
func (b *bench) handlerSpan(traceID string) (obs.SpanSnapshot, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		if rec, ok := b.st.srv.Traces().Get(traceID); ok {
			h := rec.Root
			if h.Name == "client" && len(h.Children) > 0 {
				h = h.Children[0]
			}
			return h, nil
		}
		if time.Now().After(deadline) {
			return obs.SpanSnapshot{}, fmt.Errorf("trace %s was not retained", traceID)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// fingerprint mirrors the store's snapshot fingerprint: the runtime
// model's canonical stream through sha256.
func fingerprint(m *rtmodel.Model) (string, error) {
	h := sha256.New()
	if err := m.WriteCanonical(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

func timed(f func()) float64 {
	t := time.Now()
	f()
	return durMS(time.Since(t))
}

// coldPhases maps the toolchain's phase spans to layer names.
var coldPhases = [][2]string{
	{"parse", "core.parse"},
	{"fetch", "core.fetch"},
	{"resolve", "resolve"},
	{"analyze", "analysis"},
	{"emit", "rtmodel.build"},
}

// coldLadder splits one traced cold load. The server's trace gives the
// handler and store.load spans; the loader wrapper's span holds the
// toolchain's own load → process → phase spans with alloc deltas.
// Fingerprinting, the descriptor capture and the index build have no
// span, so their entry points are re-run on the loaded snapshot.
func (b *bench) coldLadder(ctx context.Context, lad *ladder, traceID string, rec *loaderSpans,
	opWall, evict, clientWall time.Duration, snap *serve.Snapshot) error {
	h, err := b.handlerSpan(traceID)
	if err != nil {
		return err
	}
	sl, ok1 := child(h, "store.load")
	w, ok2 := rec.take("bench.load")
	tl, ok3 := child(w, "load")
	p, ok4 := child(tl, "process")
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("cold ladder: missing spans (store.load %v, bench.load %v, load %v, process %v)", ok1, ok2, ok3, ok4)
	}
	m := snap.Session.Model()
	var ferr error
	fp := timed(func() { _, ferr = fingerprint(m) })
	repo := b.st.loader.Repo()
	capt := timed(func() {
		_, ferr = delta.Capture(bigModel, func(id string) (*model.Component, error) { return repo.LoadContext(ctx, id) })
	})
	ib := timed(func() { query.NewSession(m).BuildIndexes() })
	if ferr != nil {
		return ferr
	}
	layers := [][2]any{
		{"serve.evict", durMS(evict)},
		{"serve.transport", durMS(clientWall) - spanMS(h)},
		{"serve.handler", spanMS(h) - spanMS(sl)},
		{"query.index_build", ib},
		{"serve.preserialize", spanMS(sl) - spanMS(w) - ib},
		{"serve.load_wrapper", spanMS(w) - spanMS(tl)},
		{"rtmodel.fingerprint", fp},
		{"delta.capture", capt},
	}
	for _, ph := range coldPhases {
		s, ok := child(p, ph[0])
		if !ok {
			return fmt.Errorf("cold ladder: no %s phase span", ph[0])
		}
		layers = append(layers, [2]any{ph[1], spanMS(s)})
		lad.val(ph[1]+"_alloc_mb", float64(s.AllocBytes)/1e6)
	}
	lad.addOp(opWall, layers)
	lad.val("serve.load", spanMS(w))
	lad.val("serve.publish", spanMS(sl)-spanMS(w))
	return nil
}

// armProbe makes sure the probe repository holds the current corpus
// state's descriptor closure (the "old" side of the next edit).
func (ed *editor) armProbe(ctx context.Context) error {
	if ed.probe == nil {
		l, err := newProbeLoader(ed.b.st.corpus)
		if err != nil {
			return err
		}
		ed.probe = l
	}
	if ed.probeSet == nil {
		set, err := ed.capture(ctx)
		if err != nil {
			return err
		}
		ed.probeSet = set
	}
	return nil
}

// capture re-parses the corpus into the probe repository and captures
// XScluster's descriptor closure, as LoadDelta does after the refresh
// handler drops the loader caches.
func (ed *editor) capture(ctx context.Context) (*delta.Set, error) {
	r := ed.probe.Repo()
	r.Invalidate()
	return delta.Capture(bigModel, func(id string) (*model.Component, error) { return r.LoadContext(ctx, id) })
}

// editLadder splits one traced edit. The server trace gives the
// refresh handler and store.refresh spans, the loader wrapper the
// LoadDelta time; LoadDelta's internal steps have no spans, so their
// public entry points (Capture, Analyze, ApplyRT, SyncTree and the
// fingerprint, the last two concurrent) are re-run on the probe
// repository against the pre-edit snapshot.
func (ed *editor) editLadder(ctx context.Context, lad *ladder, traceID string, rec *loaderSpans,
	old *serve.Snapshot, opWall, write, refresh, visible time.Duration) error {
	h, err := ed.b.handlerSpan(traceID)
	if err != nil {
		return err
	}
	sr, ok1 := child(h, "store.refresh")
	ld, ok2 := rec.take("bench.load_delta")
	if !ok1 || !ok2 || old == nil {
		return fmt.Errorf("edit ladder: missing spans (store.refresh %v, bench.load_delta %v)", ok1, ok2)
	}
	oldSet := ed.probeSet
	ed.probeSet = nil
	var newSet *delta.Set
	var cerr error
	capt := timed(func() { newSet, cerr = ed.capture(ctx) })
	if cerr != nil {
		return cerr
	}
	ed.probeSet = newSet
	var an delta.Analysis
	analyze := timed(func() { an = delta.Analyze(oldSet, newSet, nil) })
	if an.Outcome != delta.Patchable {
		return fmt.Errorf("edit ladder: probe analysis outcome %d (%s), want patchable", an.Outcome, an.Reason)
	}
	var rt *rtmodel.Model
	apply := timed(func() { rt, _ = delta.ApplyRT(old.Session.Model(), bigModel, an.Plan, nil) })
	sync := timed(func() { delta.SyncTree(old.System, rt, bigModel, an.Plan, nil) })
	var fp string
	fpt := timed(func() { fp, cerr = fingerprint(rt) })
	if cerr != nil {
		return cerr
	}
	if fp != ed.b.fps[ed.cur] {
		return fmt.Errorf("edit ladder: re-applied patch fingerprints %s, want %s", fp, ed.b.fps[ed.cur])
	}
	lad.addOp(opWall, [][2]any{
		{"edit.write", durMS(write)},
		{"serve.transport", durMS(refresh) - spanMS(h)},
		{"serve.handler", spanMS(h) - spanMS(sr)},
		{"serve.publish_patched", spanMS(sr) - spanMS(ld)},
		{"delta.capture", capt},
		{"delta.analyze", analyze},
		{"delta.apply_rt", apply},
		{"delta.sync_tree|fingerprint", math.Max(sync, fpt)},
		{"serve.watch_visible", durMS(visible)},
	})
	lad.val("serve.load_delta", spanMS(ld))
	lad.val("delta.sync_tree", sync)
	lad.val("rtmodel.fingerprint", fpt)
	return nil
}

// recordingTransport serves client requests in-process through
// Server.ServeHTTP with a recorder, timing the handler and counting
// its allocations.
type recordingTransport struct {
	h       http.Handler
	last    time.Duration
	mallocs uint64
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	t.h.ServeHTTP(rec, req)
	t.last = time.Since(t0)
	runtime.ReadMemStats(&m1)
	t.mallocs = m1.Mallocs - m0.Mallocs
	return rec.Result(), nil
}

// handlerProbe times every query class through ServeHTTP and through
// the loopback client, request by request, with nothing else running.
// It fills handler time and allocs per class and the transport cost
// (loopback call minus ServeHTTP of the same request).
func (b *bench) handlerProbe(ctx context.Context, log *opLog) (handlerUS, handlerAllocs map[string]float64, transportUS float64) {
	rt := &recordingTransport{h: b.st.srv}
	hc := &http.Client{Transport: rt}
	inproc := map[serve.Proto]*serve.Client{}
	loop := map[serve.Proto]*serve.Client{}
	jc, bc, closeIdle := b.st.newClient()
	defer closeIdle()
	loop[serve.ProtoJSON], loop[serve.ProtoBinary] = jc, bc
	for _, p := range []serve.Proto{serve.ProtoJSON, serve.ProtoBinary} {
		inproc[p] = &serve.Client{Base: "http://xpdld.invalid", HTTP: hc, Proto: p}
	}
	w := b.window()
	handlerUS, handlerAllocs = map[string]float64{}, map[string]float64{}
	var transport []float64
	for _, c := range classes {
		var us, allocs []float64
		reqs := b.pool.byClass[c.name]
		for i := 0; len(us) < 48 && i < 48*len(reqs); i++ {
			r := reqs[i%len(reqs)]
			p := serve.ProtoJSON
			if i%2 == 1 {
				p = serve.ProtoBinary
			}
			got, err := r.do(ctx, inproc[p])
			if ctx.Err() != nil {
				return
			}
			handler, mallocs := rt.last, rt.mallocs
			if !b.probeCheck(log, r, got, err, w) {
				continue
			}
			t0 := time.Now()
			got, err = r.do(ctx, loop[p])
			wall := time.Since(t0)
			if ctx.Err() != nil {
				return
			}
			if !b.probeCheck(log, r, got, err, w) {
				continue
			}
			us = append(us, float64(handler.Nanoseconds())/1e3)
			allocs = append(allocs, float64(mallocs))
			transport = append(transport, float64((wall-handler).Nanoseconds())/1e3)
		}
		handlerUS[c.name] = median(us)
		handlerAllocs[c.name] = median(allocs)
	}
	return handlerUS, handlerAllocs, median(transport)
}

func (b *bench) probeCheck(log *opLog, r *request, got string, err error, w winState) bool {
	log.attempted++
	switch {
	case err != nil:
		log.fail("probe %s %s: %v", r.class, r.model, err)
	case !accept(r, got, w, w):
		log.fail("probe %s %s: wrong answer %.200q", r.class, r.model, got)
	default:
		return true
	}
	return false
}

// newProbeLoader opens a second toolchain over the live corpus.
func newProbeLoader(dir string) (*serve.ToolchainLoader, error) {
	return serve.NewToolchainLoader(core.Options{SearchPaths: []string{dir}, Seed: 1})
}

// ratio is a measured share with its base, printed as "a/b".
type ratio struct{ num, den int64 }

func (r ratio) value() float64 {
	if r.den == 0 {
		return math.NaN()
	}
	return float64(r.num) / float64(r.den)
}

func (r ratio) String() string { return fmt.Sprintf("%d/%d", r.num, r.den) }
