package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpdl/internal/core"
	"xpdl/internal/delta"
	"xpdl/internal/obs"
	"xpdl/internal/serve"
)

// opLog collects one role's samples: latencies of untraced ([0]) and
// traced ([1]) operations, attempted/failed counts and the first few
// failure messages.
type opLog struct {
	lat       [2][]time.Duration
	attempted int
	failed    int
	errs      []string
	byClass   map[string]int // requests sent per query class
}

func newOpLog() *opLog { return &opLog{byClass: map[string]int{}} }

func (l *opLog) fail(format string, args ...any) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

func (l *opLog) merge(o *opLog) {
	for i := range l.lat {
		l.lat[i] = append(l.lat[i], o.lat[i]...)
	}
	l.attempted += o.attempted
	l.failed += o.failed
	for _, e := range o.errs {
		if len(l.errs) < 5 {
			l.errs = append(l.errs, e)
		}
	}
	for k, v := range o.byClass {
		l.byClass[k] += v
	}
}

// tracedContext returns ctx carrying a sampled trace, so the client
// sends a sampled traceparent and the server records the request's
// span tree in its trace ring under the returned ID.
func tracedContext(ctx context.Context) (context.Context, string) {
	tc := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	return obs.ContextWithTrace(ctx, obs.StartTrace("xpdlbench", tc, obs.SpanID{})), tc.TraceID.String()
}

// winState is the set of corpus states the served XScluster snapshot
// may be in: {a, b} while an edit is in flight, {b, b} once it is
// visible. seq advances on every change.
type winState struct {
	seq  uint64
	a, b int
}

// reader is one closed-loop query client. It alternates JSON and
// binary requests, checks every answer against the oracle and, on
// every 16th request, repeats it in the other protocol to check
// binary ≡ JSON.
type reader struct {
	jsonC, binC *serve.Client
	seq         *sequence
	win         *atomic.Pointer[winState]
	traced      bool // alternate traced and untraced requests
	log         *opLog
	n           int
}

func (rd *reader) window() winState {
	if w := rd.win.Load(); w != nil {
		return *w
	}
	return winState{}
}

// accept reports whether got is a correct answer for a request that
// ran while the window moved from w0 to w1.
func accept(r *request, got string, w0, w1 winState) bool {
	if len(r.want) == 1 {
		return got == r.want[0]
	}
	if w1.seq-w0.seq > 2 {
		for _, w := range r.want {
			if got == w {
				return true
			}
		}
		return false
	}
	for _, s := range []int{w0.a, w0.b, w1.a, w1.b} {
		if got == r.want[s] {
			return true
		}
	}
	return false
}

// step sends one request and records it.
func (rd *reader) step(ctx context.Context) {
	req := rd.seq.next()
	rd.n++
	c, other := rd.jsonC, rd.binC
	if rd.n%2 == 1 {
		c, other = other, c
	}
	tr := 0
	octx := ctx
	if rd.traced && (rd.n/2)%2 == 1 {
		tr = 1
		octx, _ = tracedContext(ctx)
	}
	w0 := rd.window()
	t0 := time.Now()
	got, err := req.do(octx, c)
	lat := time.Since(t0)
	if ctx.Err() != nil {
		return
	}
	rd.log.attempted++
	rd.log.byClass[req.class]++
	if err != nil {
		rd.log.fail("%s %s: %v", req.class, req.model, err)
		return
	}
	if !accept(req, got, w0, rd.window()) {
		rd.log.fail("%s %s: wrong answer %.200q", req.class, req.model, got)
		return
	}
	rd.log.lat[tr] = append(rd.log.lat[tr], lat)
	if rd.n%16 != 0 {
		return
	}
	// The pair must match the oracle too, and must equal the first
	// answer when no edit was in flight or landed in between.
	got2, err := req.do(ctx, other)
	if ctx.Err() != nil {
		return
	}
	w2 := rd.window()
	rd.log.attempted++
	rd.log.byClass[req.class]++
	switch {
	case err != nil:
		rd.log.fail("%s %s (%s pair): %v", req.class, req.model, other.Proto, err)
	case !accept(req, got2, w0, w2):
		rd.log.fail("%s %s (%s pair): wrong answer %.200q", req.class, req.model, other.Proto, got2)
	case got2 != got && w0.a == w0.b && w2.seq == w0.seq:
		rd.log.fail("%s %s: binary and JSON answers differ", req.class, req.model)
	}
}

// runReaders drives n closed-loop readers until the deadline.
func (b *bench) runReaders(ctx context.Context, n int, seed int64, models []string, until time.Time, traced bool) *opLog {
	out := newOpLog()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		jc, bc, closeIdle := b.st.newClient()
		rd := &reader{jsonC: jc, binC: bc, seq: newSequence(seed+int64(i)*7919, b.pool, models...),
			win: &b.win, traced: traced, log: newOpLog()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer closeIdle()
			for ctx.Err() == nil && time.Now().Before(until) {
				rd.step(ctx)
			}
			mu.Lock()
			out.merge(rd.log)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// warmPool sends every pool request once per protocol, so lazily built
// answers (element pre-serialization, plan-cache entries) exist before
// timing starts. Answers are checked like any other.
func (b *bench) warmPool(ctx context.Context, log *opLog) {
	jc, bc, closeIdle := b.st.newClient()
	defer closeIdle()
	w := b.window()
	for _, r := range b.pool.all {
		for _, c := range []*serve.Client{jc, bc} {
			got, err := r.do(ctx, c)
			if ctx.Err() != nil {
				return
			}
			log.attempted++
			if err != nil {
				log.fail("warm %s %s: %v", r.class, r.model, err)
			} else if !accept(r, got, w, w) {
				log.fail("warm %s %s: wrong answer %.200q", r.class, r.model, got)
			}
		}
	}
}

func (b *bench) window() winState {
	if w := b.win.Load(); w != nil {
		return *w
	}
	return winState{}
}

// curState is the corpus state the served XScluster snapshot holds
// between edits.
func (b *bench) curState() int {
	if b.ed != nil {
		return b.ed.cur
	}
	return 0
}

// ---- cold ----

// coldStep evicts XScluster, drops the loader caches and times the
// first summary request, which reloads the model through the whole
// toolchain. A non-nil lad arms the traced ladder.
func (b *bench) coldStep(ctx context.Context, jc *serve.Client, lad *ladder) (time.Duration, error) {
	state := b.curState()
	var rec *loaderSpans
	rctx := ctx
	var traceID string
	if lad != nil {
		rec = &loaderSpans{}
		rctx, traceID = tracedContext(ctx)
	}
	t0 := time.Now()
	b.st.store.Evict(bigModel)
	b.st.store.InvalidateLoader()
	evict := time.Since(t0)
	b.st.wrap.rec.Store(rec)
	tq := time.Now()
	v, err := jc.Summary(rctx, bigModel)
	wall := time.Since(tq)
	lat := time.Since(t0)
	b.st.wrap.rec.Store(nil)
	if err != nil {
		return lat, fmt.Errorf("cold summary: %w", err)
	}
	if got := canonSummary(v); got != b.summary[bigModel].want[state] {
		return lat, fmt.Errorf("cold summary: wrong answer %q", got)
	}
	snap, ok := b.st.store.Peek(bigModel)
	if !ok || snap.Fingerprint != b.fps[state] {
		return lat, fmt.Errorf("cold load: fingerprint differs from the setup fingerprint")
	}
	if lad != nil {
		if err := b.coldLadder(ctx, lad, traceID, rec, lat, evict, wall, snap); err != nil {
			return lat, err
		}
	}
	return lat, nil
}

// runCold repeats cold loads until the deadline. After each load the
// client sends a few reads of the query mix to the fresh snapshot;
// they are the workload's read latencies.
func (b *bench) runCold(ctx context.Context, until time.Time, traced bool) (primary, reads *opLog) {
	primary, reads = newOpLog(), newOpLog()
	jc, bc, closeIdle := b.st.newClient()
	defer closeIdle()
	rd := &reader{jsonC: jc, binC: bc, seq: newSequence(b.o.seed*31+5, b.pool, bigModel),
		win: &b.win, log: reads}
	for i := 0; ctx.Err() == nil && (time.Now().Before(until) || traced && i < 2); i++ {
		var lad *ladder
		tr := 0
		if traced && i%2 == 1 {
			lad, tr = b.coldLad, 1
		}
		lat, err := b.coldStep(ctx, jc, lad)
		if ctx.Err() != nil {
			break
		}
		primary.attempted++
		primary.byClass["summary"]++
		if err != nil {
			primary.fail("%v", err)
			continue
		}
		primary.lat[tr] = append(primary.lat[tr], lat)
		for j := 0; j < 8; j++ {
			rd.step(ctx)
		}
	}
	return primary, reads
}

// ---- edit ----

// editCatalog lists the bounded attribute edits the edit workload
// applies, each a textual replacement in one descriptor of the corpus.
// Corpus state 0 is the pristine corpus; state i applies edit i-1.
var editCatalog = []struct{ rel, from, to string }{
	{"cpu/Intel_Xeon_E5_2630L.xpdl", `static_power="15"`, `static_power="17"`},
	{"cpu/Intel_Xeon_E5_2630L.xpdl", `static_power="15"`, `static_power="16"`},
	{"cpu/Intel_Xeon_E5_2630L.xpdl", `static_power="15"`, `static_power="18"`},
	{"memory/DDR3_4G.xpdl", `static_power="1.5"`, `static_power="2"`},
	{"memory/DDR3_4G.xpdl", `static_power="1.5"`, `static_power="1.25"`},
	{"device/Nvidia_K20c.xpdl", `static_power="22"`, `static_power="24"`},
}

// editor is the edit workload's writer: it moves the corpus between
// states, refreshes XScluster and follows the watch until the new
// generation arrives.
type editor struct {
	b      *bench
	rng    *rand.Rand
	states []map[string][]byte // per state: content of every edited file
	cur    int
	jc     *serve.Client
	close  func()
	since  uint64

	refreshes, patched int
	changed, parses    int

	// probe is a second repository over the live corpus; the traced
	// ladder re-runs the delta entry points on it.
	probe    *serve.ToolchainLoader
	probeSet *delta.Set
}

// newEditor builds the corpus states and, with a fresh toolchain
// loader over a separate corpus copy, each state's full-resolve
// fingerprint and expected query answers: the delta ≡ full oracle.
func (b *bench) newEditor(ctx context.Context, seed int64) (*editor, error) {
	base := map[string][]byte{}
	for _, e := range editCatalog {
		if _, ok := base[e.rel]; !ok {
			body, err := os.ReadFile(filepath.Join(b.st.corpus, e.rel))
			if err != nil {
				return nil, err
			}
			base[e.rel] = body
		}
	}
	ed := &editor{b: b, rng: rand.New(rand.NewSource(seed)), states: []map[string][]byte{base}}
	for _, e := range editCatalog {
		s := map[string][]byte{}
		for k, v := range base {
			s[k] = v
		}
		if !bytes.Contains(base[e.rel], []byte(e.from)) {
			return nil, fmt.Errorf("edit %s: %q not found", e.rel, e.from)
		}
		s[e.rel] = bytes.Replace(base[e.rel], []byte(e.from), []byte(e.to), 1)
		ed.states = append(ed.states, s)
	}

	dir, err := os.MkdirTemp(b.tmp, "oracle-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := copyTree(b.o.models, dir); err != nil {
		return nil, err
	}
	ol, err := serve.NewToolchainLoader(core.Options{SearchPaths: []string{dir}, Seed: 1})
	if err != nil {
		return nil, err
	}
	for i, s := range ed.states {
		for rel, body := range s {
			if err := os.WriteFile(filepath.Join(dir, rel), body, 0o644); err != nil {
				return nil, err
			}
		}
		ol.Invalidate()
		snap, err := ol.Load(ctx, bigModel)
		if err != nil {
			return nil, fmt.Errorf("oracle load of state %d: %w", i, err)
		}
		if i == 0 {
			if snap.Fingerprint != b.fps[0] {
				return nil, fmt.Errorf("oracle: fresh full resolve differs from the served snapshot")
			}
			continue
		}
		b.fps = append(b.fps, snap.Fingerprint)
		if err := b.pool.expect(bigModel, snap.Session, snap.System); err != nil {
			return nil, err
		}
	}
	_, ed.since = b.st.store.WatchEvents(bigModel, 0)
	ed.jc, _, ed.close = b.st.newClient()
	return ed, nil
}

// step moves the corpus to another state and times the edit from the
// file write until the watch poll delivers the new generation.
func (ed *editor) step(ctx context.Context, lad *ladder) (time.Duration, error) {
	next := ed.rng.Intn(len(ed.states) - 1)
	if next >= ed.cur {
		next++
	}
	return ed.stepTo(ctx, next, lad)
}

// stepTo is step with the target state given.
func (ed *editor) stepTo(ctx context.Context, next int, lad *ladder) (time.Duration, error) {
	b := ed.b
	var rec *loaderSpans
	rctx := ctx
	var traceID string
	var old *serve.Snapshot
	if lad != nil {
		if err := ed.armProbe(ctx); err != nil {
			return 0, err
		}
		old, _ = b.st.store.Peek(bigModel)
		rec = &loaderSpans{}
		rctx, traceID = tracedContext(ctx)
	} else {
		ed.probeSet = nil // this edit makes the probe's closure stale
	}
	w := b.window()
	b.win.Store(&winState{seq: w.seq + 1, a: ed.cur, b: next})
	defer func() { b.win.Store(&winState{seq: w.seq + 2, a: next, b: next}) }()

	t0 := time.Now()
	for rel, body := range ed.states[next] {
		if !bytes.Equal(body, ed.states[ed.cur][rel]) {
			if err := os.WriteFile(filepath.Join(b.st.corpus, rel), body, 0o644); err != nil {
				return 0, err
			}
		}
	}
	write := time.Since(t0)
	ed.cur = next
	parses0 := b.st.loader.Repo().Stats().LocalParses
	b.st.wrap.rec.Store(rec)
	tr := time.Now()
	resp, err := ed.jc.Refresh(rctx, bigModel)
	refresh := time.Since(tr)
	b.st.wrap.rec.Store(nil)
	if err != nil {
		return time.Since(t0), fmt.Errorf("refresh: %w", err)
	}
	ed.refreshes++
	if resp.Delta {
		ed.patched++
	}
	if !resp.Swapped || !resp.Delta {
		return time.Since(t0), fmt.Errorf("refresh to state %d: swapped=%v delta=%v, want a delta-patched swap", next, resp.Swapped, resp.Delta)
	}
	tv := time.Now()
	var ev *serve.WatchEvent
	for ev == nil {
		pr, err := ed.jc.WatchPoll(ctx, bigModel, ed.since, 5*time.Second)
		if err != nil {
			return time.Since(t0), fmt.Errorf("watch poll: %w", err)
		}
		ed.since = pr.Next
		for i := range pr.Events {
			if pr.Events[i].Generation == resp.Generation {
				ev = &pr.Events[i]
			}
		}
		if ev == nil && time.Since(tv) > 10*time.Second {
			return time.Since(t0), fmt.Errorf("watch: generation %d never arrived", resp.Generation)
		}
	}
	visible := time.Since(tv)
	lat := time.Since(t0)
	ed.parses += b.st.loader.Repo().Stats().LocalParses - parses0
	ed.changed += len(ev.Changed)
	if !ev.Delta || ev.Fingerprint != b.fps[next] {
		return lat, fmt.Errorf("edit to state %d: watch event delta=%v fingerprint %s, want the full-resolve fingerprint %s",
			next, ev.Delta, ev.Fingerprint, b.fps[next])
	}
	if lad != nil {
		if err := ed.editLadder(ctx, lad, traceID, rec, old, lat, write, refresh, visible); err != nil {
			return lat, err
		}
	}
	return lat, nil
}

// runEdit runs the writer beside one query reader until the deadline.
func (b *bench) runEdit(ctx context.Context, until time.Time, traced bool) (primary, reads *opLog) {
	primary = newOpLog()
	done := make(chan *opLog, 1)
	go func() { done <- b.runReaders(ctx, 1, b.o.seed*31+7, []string{smallModel, bigModel}, until, traced) }()
	for i := 0; ctx.Err() == nil && (time.Now().Before(until) || traced && i < 2); i++ {
		var lad *ladder
		tr := 0
		if traced && i%2 == 1 {
			lad, tr = b.editLad, 1
		}
		lat, err := b.ed.step(ctx, lad)
		if ctx.Err() != nil {
			break
		}
		primary.attempted++
		if err != nil {
			primary.fail("%v", err)
			continue
		}
		primary.lat[tr] = append(primary.lat[tr], lat)
	}
	return primary, <-done
}

// describeErrs joins a log's first failure messages.
func describeErrs(l *opLog) string { return strings.Join(l.errs, "; ") }
