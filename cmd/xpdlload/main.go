// Command xpdlload drives synthetic query load against a running
// xpdld and reports throughput and latency percentiles — the
// measurement half of the serving experiments (EXPERIMENTS.md
// E15/E16/E17/E18) and the smoke probe of the CI serve job.
//
// Usage:
//
//	xpdlload -addr http://localhost:8360 -model liu_gpu_server -c 8 -duration 10s
//
// -addr accepts a comma-separated list of xpdld base URLs; more than
// one switches on cluster mode: every request routes over a rendezvous
// ring (replication factor -replicas) to the model's replica set,
// spreads across healthy replicas, and fails over under the failover
// rules of package shard (Ring.Route) — a request only counts as failed
// when EVERY member refused it. The
// report gains a "route:" line (members up, picks, failovers) and the
// run exports the same xpdl_route_* metrics the serving tier uses, so
// a kill-a-member experiment can assert zero failed requests while the
// failover counter climbs.
//
// Including "batch" in -mix drives the /batch endpoint instead of one
// request per query: each batch request packs -batch N select/eval
// operations (default 8), so N queries cost one HTTP round trip — the
// amortized mode of EXPERIMENTS.md E17.
//
// Including "sweep" in -mix submits one async sweep job per request
// (body from -sweep-spec); the daemon's bounded job queue answers 429
// once saturated, which the report counts as throttling rather than
// failure — the submission-path probe of the scenario job API.
//
// -proto selects the wire protocol: "json" (default), "bin" (negotiate
// application/x-xpdl-bin answers), or "both" (alternate per request
// and report a per-protocol breakdown — the comparison mode of
// EXPERIMENTS.md E18). In binary mode every 2xx response's
// Content-Type is verified; a mismatch counts as a protocol error and
// fails the run.
//
// With -trace-sample > 0 the given fraction of requests carries a
// sampled W3C traceparent header, forcing the daemon to retain those
// traces in /debug/traces; the report then names the slowest request's
// trace ID so the worst latency of a run can be explained span by span.
//
// The exit status is 0 only when the run saw at least one 2xx response
// and no transport or protocol errors, so scripts can assert "the
// daemon actually served load" with a plain `xpdlload && ...`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xpdl/internal/obs"
	"xpdl/internal/repo"
	"xpdl/internal/serve"
	"xpdl/internal/shard"
)

// probe is one endpoint of the load mix.
type probe struct {
	name   string
	method string
	path   string // relative to /v1/models/{model}
	body   string
}

func probes(model string, batchOps int, sweepSpec string) map[string]probe {
	return map[string]probe{
		"summary": {"summary", http.MethodGet, "/summary", ""},
		"element": {"element", http.MethodGet, "/element?ident=" + url.QueryEscape(model), ""},
		"select":  {"select", http.MethodGet, "/select?q=" + url.QueryEscape("//core"), ""},
		"eval":    {"eval", http.MethodPost, "/eval", `{"expr": "num_cores() >= 1"}`},
		"tree":    {"tree", http.MethodGet, "/tree", ""},
		"batch":   {"batch", http.MethodPost, "/batch", batchBody(batchOps)},
		"sweep":   {"sweep", http.MethodPost, "/sweep", sweepSpec},
	}
}

// batchBody builds a /batch payload of n select/eval operations — the
// amortized client path the batch mode measures against the
// one-request-per-query endpoints.
func batchBody(n int) string {
	selectors := []string{"//core", "//cache", "//device"}
	ops := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			ops = append(ops, `{"op": "eval", "expr": "num_cores() >= 1"}`)
		} else {
			ops = append(ops, fmt.Sprintf(`{"op": "select", "selector": %q}`, selectors[i%len(selectors)]))
		}
	}
	return `{"ops": [` + strings.Join(ops, ", ") + `]}`
}

// protoStats aggregates one wire protocol's share of a run.
type protoStats struct {
	latencies []time.Duration
	byCode    map[int]int // exact status code -> count
	transport int         // request errors (connect, timeout)
	mismatch  int         // 2xx answers with the wrong Content-Type
	bytes     int64       // response body bytes read
}

func newProtoStats() *protoStats {
	return &protoStats{byCode: map[int]int{}}
}

type workerStats struct {
	perProto map[string]*protoStats

	slowest      time.Duration
	slowestProbe string
	slowestTrace string // from the X-Xpdl-Trace response header
}

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8360", "base URL(s) of the xpdld instance(s), comma-separated (more than one switches on cluster routing)")
		replicas    = flag.Int("replicas", 2, "per-model replica placement factor in cluster mode")
		model       = flag.String("model", "", "system model identifier to query (required)")
		duration    = flag.Duration("duration", 5*time.Second, "how long to generate load")
		conc        = flag.Int("c", 4, "concurrent load workers")
		mix         = flag.String("mix", "summary,element,select,eval", "comma-separated endpoint mix (summary, element, select, eval, tree, batch)")
		batchOps    = flag.Int("batch", 8, `select/eval operations per /batch request (the "batch" mix endpoint)`)
		sweepSpec   = flag.String("sweep-spec", "", `sweep spec JSON file for the "sweep" mix endpoint (each request submits one async job; 429s count as throttling, not failure)`)
		proto       = flag.String("proto", "json", `wire protocol: "json", "bin", or "both" (alternate and report per-protocol)`)
		traceSample = flag.Float64("trace-sample", 0, "fraction of requests sent with a sampled traceparent (the daemon retains those traces)")
		watchers    = flag.Int("watchers", 0, "SSE watch subscribers held open for the duration (counts generation-change events)")
		serverStats = flag.Bool("server-stats", false, "after the run, fetch /v1/stats/queries and print the daemon's own per-digest accounting of the load")
	)
	flag.Parse()
	if *model == "" {
		fmt.Fprintln(os.Stderr, "xpdlload: -model is required")
		os.Exit(2)
	}
	if *batchOps < 1 {
		fmt.Fprintln(os.Stderr, "xpdlload: -batch must be at least 1")
		os.Exit(2)
	}
	var protos []string
	switch *proto {
	case "json", "bin":
		protos = []string{*proto}
	case "both":
		protos = []string{"json", "bin"}
	default:
		fmt.Fprintf(os.Stderr, "xpdlload: -proto must be json, bin or both (got %q)\n", *proto)
		os.Exit(2)
	}
	var sweepBody string
	if *sweepSpec != "" {
		b, err := os.ReadFile(*sweepSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpdlload: -sweep-spec: %v\n", err)
			os.Exit(2)
		}
		sweepBody = string(b)
	}
	all := probes(*model, *batchOps, sweepBody)
	var mixProbes []probe
	for _, name := range strings.Split(*mix, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := all[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "xpdlload: unknown endpoint %q in -mix\n", name)
			os.Exit(2)
		}
		if name == "sweep" && sweepBody == "" {
			fmt.Fprintln(os.Stderr, `xpdlload: the "sweep" mix endpoint needs -sweep-spec`)
			os.Exit(2)
		}
		mixProbes = append(mixProbes, p)
	}
	if len(mixProbes) == 0 {
		fmt.Fprintln(os.Stderr, "xpdlload: empty -mix")
		os.Exit(2)
	}

	var endpoints []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimRight(strings.TrimSpace(a), "/"); a != "" {
			endpoints = append(endpoints, a)
		}
	}
	if len(endpoints) == 0 {
		fmt.Fprintln(os.Stderr, "xpdlload: -addr is empty")
		os.Exit(2)
	}
	cluster := len(endpoints) > 1
	ring, err := shard.New(shard.Config{Members: endpoints, Replicas: *replicas})
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpdlload: %v\n", err)
		os.Exit(2)
	}
	modelPath := "/v1/models/" + url.PathEscape(*model)
	// http.DefaultTransport keeps only 2 idle conns per host, which
	// collapses a -c 64 run onto 2 reused connections plus constant
	// dial churn; keep at least one warm connection per worker.
	maxIdle := *conc
	if maxIdle < 64 {
		maxIdle = 64
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			ForceAttemptHTTP2:   true,
			MaxIdleConns:        4 * maxIdle,
			MaxIdleConnsPerHost: maxIdle,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	sampler := obs.NewSampler(*traceSample)
	deadline := time.Now().Add(*duration)

	// Watch subscribers ride alongside the query load: each holds one
	// SSE stream open and counts the generation-change events it sees,
	// so hot-swap behavior under load is visible in the report.
	var watchEvents atomic.Int64
	var watchWG sync.WaitGroup
	if *watchers > 0 {
		watchCtx, watchCancel := context.WithDeadline(context.Background(), deadline)
		defer watchCancel()
		wc := serve.NewClient(endpoints[0])
		wc.HTTP = &http.Client{} // no overall timeout: the stream lives until the deadline
		for i := 0; i < *watchers; i++ {
			watchWG.Add(1)
			go func() {
				defer watchWG.Done()
				_ = wc.Watch(watchCtx, *model, 0, func(serve.WatchEvent) error {
					watchEvents.Add(1)
					return nil
				})
			}()
		}
	}
	stats := make([]workerStats, *conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			st.perProto = map[string]*protoStats{}
			for _, pr := range protos {
				st.perProto[pr] = newProtoStats()
			}
			for i := 0; time.Now().Before(deadline); i++ {
				p := mixProbes[(i+w)%len(mixProbes)]
				pr := protos[i%len(protos)]
				ps := st.perProto[pr]
				sampled := sampler.Sample()
				// Route the request under the ring's failover rules; the
				// single-endpoint order is just that endpoint. Only a
				// request no member answered counts as failed; when every
				// member is busy, the last 503 is the answer.
				var resp *http.Response
				t0 := time.Now()
				_ = ring.Route(context.Background(), *model, func(member string) (shard.Answer, error) {
					var body io.Reader
					if p.body != "" {
						body = strings.NewReader(p.body)
					}
					req, err := http.NewRequest(p.method, member+modelPath+p.path, body)
					if err != nil {
						return shard.Answer{}, err
					}
					if p.body != "" {
						req.Header.Set("Content-Type", "application/json")
					}
					if pr == "bin" {
						req.Header.Set("Accept", serve.ContentTypeBinary)
					}
					if sampled {
						tc := obs.TraceContext{
							TraceID: obs.NewTraceID(),
							SpanID:  obs.NewSpanID(),
							Sampled: true,
						}
						req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
					}
					r, err := client.Do(req)
					if err != nil {
						return shard.Answer{}, err
					}
					if resp != nil {
						resp.Body.Close()
					}
					resp = r
					return shard.Answer{Status: r.StatusCode, RetryAfter: repo.RetryAfter(r)}, nil
				})
				if resp == nil {
					ps.transport++
					continue
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				lat := time.Since(t0)
				ps.latencies = append(ps.latencies, lat)
				ps.byCode[resp.StatusCode]++
				ps.bytes += n
				if pr == "bin" && resp.StatusCode/100 == 2 {
					if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt != serve.ContentTypeBinary {
						ps.mismatch++
					}
				}
				if lat > st.slowest {
					st.slowest = lat
					st.slowestProbe = p.name
					st.slowestTrace = resp.Header.Get("X-Xpdl-Trace")
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	watchWG.Wait()

	// Merge per-worker stats, overall and per protocol.
	merged := map[string]*protoStats{}
	for _, pr := range protos {
		merged[pr] = newProtoStats()
	}
	var all2xx, transport, mismatch int
	var lats []time.Duration
	byCode := map[int]int{}
	var slowest workerStats
	for _, st := range stats {
		for pr, ps := range st.perProto {
			m := merged[pr]
			m.latencies = append(m.latencies, ps.latencies...)
			m.transport += ps.transport
			m.mismatch += ps.mismatch
			m.bytes += ps.bytes
			transport += ps.transport
			mismatch += ps.mismatch
			lats = append(lats, ps.latencies...)
			for code, n := range ps.byCode {
				m.byCode[code] += n
				byCode[code] += n
				if code/100 == 2 {
					all2xx += n
				}
			}
		}
		if st.slowest > slowest.slowest {
			slowest = st
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	codes := make([]int, 0, len(byCode))
	for code := range byCode {
		codes = append(codes, code)
	}
	sort.Ints(codes)

	total := len(lats)
	fmt.Printf("xpdlload: %d requests in %s (%.0f req/s), %d workers, mix %s, proto %s\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), *conc, *mix, *proto)
	if cluster {
		rst := ring.Stats()
		fmt.Printf("  route: %d members (%d up), %d picks, %d failovers, transitions down %d up %d\n",
			len(endpoints), rst.MembersUp, rst.Picks, rst.Failovers, rst.TransDown, rst.TransUp)
	}
	for _, code := range codes {
		line := fmt.Sprintf("  %d %s: %d", code, http.StatusText(code), byCode[code])
		fmt.Println(strings.TrimRight(line, " "))
	}
	if transport > 0 {
		fmt.Printf("  transport errors: %d\n", transport)
	}
	if mismatch > 0 {
		fmt.Printf("  protocol errors (wrong Content-Type): %d\n", mismatch)
	}
	if total > 0 {
		fmt.Printf("  latency: p50 %s  p90 %s  p99 %s  max %s\n",
			pct(lats, 50), pct(lats, 90), pct(lats, 99), lats[total-1])
	}
	// Per-protocol breakdown: the E18 comparison. Printed whenever the
	// binary protocol is in play, even alone, so scripts can always
	// scrape the "proto bin:" line in -proto bin runs.
	if len(protos) > 1 || protos[0] == "bin" {
		for _, pr := range protos {
			m := merged[pr]
			sort.Slice(m.latencies, func(i, j int) bool { return m.latencies[i] < m.latencies[j] })
			n := len(m.latencies)
			if n == 0 {
				fmt.Printf("  proto %s: 0 requests\n", pr)
				continue
			}
			avg := m.bytes / int64(n)
			fmt.Printf("  proto %s: %d requests (%.0f req/s), p50 %s  p99 %s, avg %d B/resp\n",
				pr, n, float64(n)/elapsed.Seconds(), pct(m.latencies, 50), pct(m.latencies, 99), avg)
		}
	}
	if *watchers > 0 {
		fmt.Printf("  watchers: %d subscribers, %d events seen\n", *watchers, watchEvents.Load())
	}
	if slowest.slowest > 0 {
		line := fmt.Sprintf("  slowest: %s on %s", slowest.slowest, slowest.slowestProbe)
		if slowest.slowestTrace != "" {
			line += " (trace " + slowest.slowestTrace + ")"
		}
		fmt.Println(line)
	}
	// The daemon's own accounting of what we just sent: each digest is
	// one query class (endpoint + plan shape + proto), so the client-side
	// totals above can be reconciled against the server's attribution.
	if *serverStats {
		sc := serve.NewClient(strings.TrimRight(*addr, "/"))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		qs, err := sc.QueryStats(ctx, "calls", 0, *model)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "xpdlload: server stats: %v\n", err)
		} else {
			fmt.Printf("  server digests: %d (%d samples recorded, %d evicted)\n",
				qs.Digests, qs.Recorded, qs.Evicted)
			for _, row := range qs.Rows {
				shape := row.Shape
				if shape != "" {
					shape = " " + shape
				}
				fmt.Printf("    %-10s %-4s%s: %d calls, %d errors, p50 %.2fms p99 %.2fms, %d B out\n",
					row.Endpoint, row.Proto, shape, row.Calls, row.Errors,
					row.P50S*1e3, row.P99S*1e3, row.RespBytes)
			}
		}
	}
	if all2xx == 0 {
		fmt.Fprintln(os.Stderr, "xpdlload: FAIL: no 2xx responses")
		os.Exit(1)
	}
	if transport > 0 {
		fmt.Fprintln(os.Stderr, "xpdlload: FAIL: transport errors")
		os.Exit(1)
	}
	if mismatch > 0 {
		fmt.Fprintln(os.Stderr, "xpdlload: FAIL: protocol errors")
		os.Exit(1)
	}
}

// pct returns the p-th percentile of sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
