// Command xpdlbench measures xpdld, the platform-model query service,
// end to end and layer by layer. It runs the real server
// (serve.NewServer over serve.NewStore and serve.NewToolchainLoader)
// in-process on a 127.0.0.1:0 listener and drives it with serve.Client
// over loopback, so nothing it starts outlives the process. Every
// answer is checked against an oracle computed at setup.
//
//	xpdlbench --workload query|edit|cold --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer
// ladder. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"xpdl/internal/obs"
	"xpdl/internal/serve"
)

// setupReps is how many times a run builds the whole stack; setup_s is
// the median and the last stack is the one measured.
const setupReps = 5

// probeOps is how many traced operations a traced run adds for the
// cold and edit ladders when its own workload does not produce them.
// A traced cold or edit run always makes at least two operations of
// its own, one untraced and one traced, so the overhead ratio and its
// ladder have samples even when the host is very slow.
const probeOps = 4

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	models   string
	work     string
}

// bench is one run's state.
type bench struct {
	o       options
	tmp     string
	st      *stack
	pool    *pool
	summary map[string]*request // each model's summary request
	fps     []string            // XScluster fingerprint per corpus state
	win     atomic.Pointer[winState]
	ed      *editor

	coldLad, editLad *ladder
}

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xpdlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: query, edit or cold")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; fixes the generated requests and edits")
	fs.IntVar(&o.seconds, "seconds", 10, "measured duration in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end metrics")
	fs.StringVar(&o.models, "models", "models", "model corpus to copy and serve")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for the run's private corpus copies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	switch {
	case o.workload != "query" && o.workload != "edit" && o.workload != "cold":
		fmt.Fprintf(stderr, "xpdlbench: unknown workload %q (want query, edit or cold)\n", o.workload)
		return 2
	case o.seconds < 1 || trace < 0 || trace > 1:
		fmt.Fprintln(stderr, "xpdlbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	say := func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) }
	res, err := execute(ctx, o, say)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintln(stderr, "xpdlbench:", err)
		return 1
	}
	out := map[string]any{"correct": res.correct, "attempted": res.attempted, "failed": res.failed}
	ms := map[string]any{}
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = ms
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "xpdlbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// execute sets up, runs one workload and tears everything down on
// every path.
func execute(ctx context.Context, o options, say func(string, ...any)) (*result, error) {
	if fi, err := os.Stat(o.models); err != nil || !fi.IsDir() {
		return nil, errNoCorpus
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{o: o, tmp: tmp, summary: map[string]*request{}}
	defer func() {
		if b.ed != nil {
			b.ed.close()
		}
		if b.st != nil {
			b.st.close()
		}
	}()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b.st != nil {
			b.st.close()
			b.st = nil
			runtime.GC()
		}
		t0 := time.Now()
		st, err := startStack(ctx, o.models, tmp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b.st = st
	}
	if err := b.prepare(ctx); err != nil {
		return nil, err
	}

	// Warm-up: every pool request once per protocol, plus one untimed
	// operation of the workload, so timing starts with caches filled.
	warm := newOpLog()
	b.warmPool(ctx, warm)
	switch o.workload {
	case "cold":
		jc, _, closeIdle := b.st.newClient()
		if _, err := b.coldStep(ctx, jc, nil); err != nil {
			warm.fail("warm cold: %v", err)
		}
		warm.attempted++
		closeIdle()
	case "edit":
		if _, err := b.ed.step(ctx, nil); err != nil {
			warm.fail("warm edit: %v", err)
		}
		warm.attempted++
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	runtime.GC()
	planHits := obs.Default().Counter("xpdl_query_plan_cache_hits_total", "")
	planMisses := obs.Default().Counter("xpdl_query_plan_cache_misses_total", "")
	preser := obs.Default().Counter("xpdl_serve_preser_hits_total", "")
	h0, m0, p0 := planHits.Value(), planMisses.Value(), preser.Value()
	u0 := readUsage()
	until := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var primary, reads *opLog
	switch o.workload {
	case "query":
		primary = b.runReaders(ctx, 2, o.seed, []string{smallModel, bigModel}, until, o.trace)
		reads = primary
	case "edit":
		primary, reads = b.runEdit(ctx, until, o.trace)
	case "cold":
		primary, reads = b.runCold(ctx, until, o.trace)
	}
	u1 := readUsage()
	h1, m1, p1 := planHits.Value(), planMisses.Value(), preser.Value()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// The live heap depends on the corpus state the edits left behind;
	// return to the pristine corpus so heap_mb compares like with like.
	if b.ed != nil && b.ed.cur != 0 {
		warm.attempted++
		if _, err := b.ed.stepTo(ctx, 0, nil); err != nil {
			warm.fail("edit back to the pristine corpus: %v", err)
		}
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled buffers do not count as
	// live heap.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	window := newOpLog()
	window.merge(primary)
	if reads != primary {
		window.merge(reads)
	}
	all := newOpLog()
	all.merge(warm)
	all.merge(window)
	ops := len(primary.lat[0]) + len(primary.lat[1])
	elapsed := u1.at.Sub(u0.at).Seconds()
	lat := ms(primary.lat[0])
	tailP := tailPercentile(len(lat))
	steal := stealShare(u0.cpuStat, u1.cpuStat)
	say("workload %s seed %d: %d primary ops in %.1f s (%d attempted, %d failed); %d reads (%d failed)",
		o.workload, o.seed, ops, elapsed, primary.attempted, primary.failed, len(reads.lat[0])+len(reads.lat[1]), reads.failed)
	say("tail: p%.2f over %d untraced samples", tailP, len(lat))
	say("primary latency ms: p10 %.4f  p25 %.4f  p50 %.4f  p75 %.4f  p90 %.4f",
		quantile(lat, .1), quantile(lat, .25), quantile(lat, .5), quantile(lat, .75), quantile(lat, .9))
	env := map[string]any{
		"steal_share": steal, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commitOf("."), "setup_runs_s": setups,
		"tail_percentile": tailP, "tail_samples": len(lat),
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	say("%s", envLine)

	var metrics []metric
	add := func(name, unit string, v float64) { metrics = append(metrics, metric{name, unit, v}) }
	if !o.trace {
		n := float64(ops)
		// Time per op follows the host's co-tenant load and steal: across
		// ten runs its spread reached 0.23 of the median for CPU time and
		// 0.29 to 0.77 for wall-clock figures, against a bound of at most
		// 0.25, so these are printed beside the gated counts, not gated.
		say("time per op (not gated): p50_ms %.4f  tail_ms %.4f  ops_per_s %.4f  read_p50_ms %.4f  cpu_ms_per_op %.4f",
			median(lat), quantile(lat, tailP/100), n/elapsed, median(ms(reads.lat[0])), durMS(u1.cpu-u0.cpu)/n)
		add("alloc_kb_per_op", "KiB", float64(u1.alloc-u0.alloc)/1024/n)
		add("allocs_per_op", "count", float64(u1.mallocs-u0.mallocs)/n)
		add("heap_mb", "MiB", float64(mem.HeapAlloc)/(1<<20))
		add("setup_s", "s", median(setups))
	} else {
		layers, err := b.tracedLayers(ctx, say, all, primary)
		if err != nil {
			return nil, err
		}
		metrics = append(metrics, layers...)
		add("query.plan_cache_hit_ratio", "ratio", ratio{h1 - h0, h1 - h0 + m1 - m0}.value())
		say("query.plan_cache_hit_ratio base: %s plan lookups", ratio{h1 - h0, h1 - h0 + m1 - m0})
		pre := ratio{p1 - p0, int64(window.byClass["summary"] + window.byClass["element"])}
		add("serve.preser_hit_ratio", "ratio", pre.value())
		say("serve.preser_hit_ratio base: %s summary+element answers", pre)
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s has no samples (%d failed ops: %s)", m.name, all.failed, describeErrs(all))
		}
		say("%-36s %14.4f %s", m.name, m.value, m.unit)
	}
	if all.failed > 0 {
		say("failures: %s", describeErrs(all))
	}
	return &result{correct: all.failed == 0, attempted: all.attempted, failed: all.failed, metrics: metrics}, nil
}

// prepare builds the request pool and its oracle from the resident
// snapshots and, where the run edits the corpus, the edit states.
func (b *bench) prepare(ctx context.Context) error {
	snaps := map[string]*serve.Snapshot{}
	for _, id := range []string{smallModel, bigModel} {
		s, ok := b.st.store.Peek(id)
		if !ok {
			return fmt.Errorf("setup: %s is not resident", id)
		}
		snaps[id] = s
	}
	var err error
	b.pool, err = buildPool(rand.New(rand.NewSource(b.o.seed)), snaps)
	if err != nil {
		return err
	}
	for id, s := range snaps {
		if err := b.pool.expect(id, s.Session, s.System); err != nil {
			return err
		}
	}
	for _, r := range b.pool.byClass["summary"] {
		b.summary[r.model] = r
	}
	b.fps = []string{snaps[bigModel].Fingerprint}
	if b.o.workload == "edit" || b.o.trace {
		if b.ed, err = b.newEditor(ctx, b.o.seed*131+3); err != nil {
			return err
		}
	}
	if b.o.trace {
		b.coldLad, b.editLad = newLadder("cold"), newLadder("edit")
	}
	return nil
}

// tracedLayers completes the traced run: the handler/transport probe,
// traced cold loads and edits for whichever ladder the workload did not
// fill, then the per-layer metrics.
func (b *bench) tracedLayers(ctx context.Context, say func(string, ...any), all, primary *opLog) ([]metric, error) {
	probes := newOpLog()
	hUS, hAllocs, transportUS := b.handlerProbe(ctx, probes)
	if b.o.workload != "cold" {
		jc, _, closeIdle := b.st.newClient()
		for i := 0; i < probeOps && ctx.Err() == nil; i++ {
			probes.attempted++
			if _, err := b.coldStep(ctx, jc, b.coldLad); err != nil {
				probes.fail("probe cold: %v", err)
			}
		}
		closeIdle()
	}
	if b.o.workload != "edit" {
		for i := 0; i < probeOps && ctx.Err() == nil; i++ {
			probes.attempted++
			if _, err := b.ed.step(ctx, b.editLad); err != nil {
				probes.fail("probe edit: %v", err)
			}
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	all.merge(probes)
	b.coldLad.report(say)
	b.editLad.report(say)

	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }
	c, e := b.coldLad, b.editLad
	add("serve.load_ms", "ms", c.med("serve.load"))
	add("serve.load_delta_ms", "ms", e.med("serve.load_delta"))
	add("serve.publish_ms", "ms", c.med("serve.publish"))
	add("serve.publish_patched_ms", "ms", e.med("serve.publish_patched"))
	add("serve.watch_visible_ms", "ms", e.med("serve.watch_visible"))
	add("serve.transport_us", "us", transportUS)
	for _, cl := range classes {
		add("serve.handler_us."+cl.name, "us", hUS[cl.name])
	}
	for _, cl := range classes {
		add("serve.handler_allocs."+cl.name, "count", hAllocs[cl.name])
	}
	add("rtmodel.fingerprint_ms", "ms", c.med("rtmodel.fingerprint"))
	for _, ph := range coldPhases {
		// Single-word layers take their unit after a dot (resolve.ms),
		// module.step layers after an underscore (core.parse_ms).
		sep := "_"
		if !strings.Contains(ph[1], ".") {
			sep = "."
		}
		add(ph[1]+sep+"ms", "ms", c.med(ph[1]))
		add(ph[1]+sep+"alloc_mb", "MB", c.med(ph[1]+"_alloc_mb"))
	}
	add("query.index_build_ms", "ms", c.med("query.index_build"))
	add("delta.capture_ms", "ms", e.med("delta.capture"))
	add("delta.analyze_ms", "ms", e.med("delta.analyze"))
	add("delta.apply_rt_ms", "ms", e.med("delta.apply_rt"))
	add("delta.sync_tree_ms", "ms", e.med("delta.sync_tree"))
	patched := ratio{int64(b.ed.patched), int64(b.ed.refreshes)}
	add("delta.patched_ratio", "ratio", patched.value())
	say("delta.patched_ratio base: %s refreshes", patched)
	useful := ratio{int64(b.ed.changed), int64(b.ed.parses)}
	add("repo.useful_parse_ratio", "ratio", useful.value())
	say("repo.useful_parse_ratio base: %s changed/re-parsed descriptors", useful)
	untraced, traced := median(ms(primary.lat[0])), median(ms(primary.lat[1]))
	add("trace.overhead_ratio", "ratio", traced/untraced)
	say("trace.overhead_ratio base: traced p50 %.4f ms over untraced p50 %.4f ms (%d/%d ops)",
		traced, untraced, len(primary.lat[1]), len(primary.lat[0]))
	add("ladder.cold_unattributed", "ratio", median(c.unattr))
	add("ladder.edit_unattributed", "ratio", median(e.unattr))
	return out, nil
}
