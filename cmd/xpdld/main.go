// Command xpdld is the hot-swapping platform-model query service: a
// long-running daemon that resolves XPDL system models through the
// processing toolchain once, holds the resulting query snapshots in
// memory, and answers JSON-over-HTTP introspection requests — the
// runtime query API of Section IV served to many processes instead of
// linked into one.
//
// Models stay fresh without restarts: a background revalidator
// periodically invalidates the descriptor caches (remote descriptors
// revalidate with conditional requests and usually cost one 304) and
// re-resolves every resident model, atomically swapping in snapshots
// whose content actually changed. In-flight requests keep the snapshot
// they started with. Bounded descriptor edits — a single attribute
// value change that no parameter, override or synthesized attribute
// touches — are applied as in-place delta patches that reuse the old
// snapshot's indexes and pre-serialized answers instead of re-running
// the resolver; everything else falls back to a full resolve
// (xpdl_delta_fallback_total counts why). Either way, watchers on
// GET /v1/models/{model}/watch receive one generation-change event per
// swap.
//
// Usage:
//
//	xpdld -models models -preload liu_gpu_server -addr :8360
//
// Endpoints (all under /v1/models/{model}):
//
//	GET  /healthz                    liveness + resident models
//	GET  /v1/models                  resident model inventory
//	GET  .../summary                 cores, CUDA devices, static power, installed software
//	GET  .../tree  .../json          model exports (xpdlquery-compatible)
//	GET  .../element?ident=gpu1      element lookup by qualified name
//	GET  .../select?q=//cache        selector evaluation (also POST)
//	POST .../eval                    expression evaluation in the model env
//	POST .../batch                   many select/eval ops, one round trip
//	GET  .../energy?table=e5_isa&inst=divsd&ghz=3.0
//	GET  .../transfer?channel=up_link&bytes=1048576
//	POST .../dispatch                composition variant selection
//	POST .../refresh                 manual revalidation (unless -allow-refresh=false)
//	GET  .../watch                   generation-change events (SSE; long poll via ?since=&wait=)
//	POST .../sweep                   submit an async parameter sweep, returns a job handle
//	GET  /v1/jobs  /v1/jobs/{id}     job inventory and status (?points=1 for full results)
//	GET  /v1/jobs/{id}/stream        per-point sweep progress (SSE, resumable via ?since=)
//	POST /v1/jobs/{id}/cancel        cancel a queued or running sweep
//	GET  /v1/stats/queries           per-digest statement statistics (?sort=&limit=&model=)
//	GET  /metrics /debug/pprof/ /debug/vars
//	GET  /debug/traces               recent completed request traces
//	GET  /debug/traces/{id}          one trace's full span tree as JSON
//
// Every /v1 endpoint speaks two wire protocols. The default is
// pretty-printed JSON. A client that sends
// `Accept: application/x-xpdl-bin` gets the same answer as a
// length-prefixed binary frame with interned strings (the runtime
// model format's envelope) — cheaper to produce and parse. The
// summary, tree, json and element answers are rendered once per
// snapshot generation and then served from those bytes: summary and
// tree at publish, json and each element on first access.
// Negotiation is opt-in only: absent, */* or application/json Accept
// headers get byte-identical JSON, so existing clients never see a
// change. serve.Client speaks either protocol (Client.Proto), and
// `xpdlquery -remote` rides the binary one by default.
//
// Every request is traced: an incoming W3C traceparent header joins
// the caller's trace, otherwise -trace-sample decides whether the
// fresh trace is retained. 5xx responses are always retained. The
// response header X-Xpdl-Trace names the trace either way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xpdl/internal/core"
	"xpdl/internal/obs"
	"xpdl/internal/query"
	"xpdl/internal/repo"
	"xpdl/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8360", "listen address")
		models      = flag.String("models", "models", "comma-separated local model repository directories")
		remotes     = flag.String("remote", "", "comma-separated base URLs of remote model libraries")
		preload     = flag.String("preload", "", "comma-separated system identifiers to resolve at startup")
		revalidate  = flag.Duration("revalidate", 30*time.Second, "revalidation poll interval (0 disables hot swapping)")
		maxModels   = flag.Int("max-models", 0, "maximum resident models, LRU-evicted beyond (0 = unbounded)")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "per-request timeout")
		maxInflight = flag.Int("max-inflight", 256, "maximum concurrently served requests")
		cacheDir    = flag.String("cache-dir", "", "on-disk descriptor cache for remote libraries (enables offline fallback)")
		allowRef    = flag.Bool("allow-refresh", true, "expose POST /v1/models/{model}/refresh")
		watchBuffer = flag.Int("watch-buffer", 16, "per-subscriber watch event queue; slower consumers are evicted")
		seed        = flag.Int64("seed", 1, "simulated-substrate seed for '?' calibration")
		planCache   = flag.Int("plan-cache", 1024, "maximum cached compiled selector plans and expressions (0 disables caching)")
		traceSample = flag.Float64("trace-sample", 0.1, "head-sampling probability for request traces (5xx always recorded; clients can force via traceparent)")
		maxTraces   = flag.Int("max-traces", 256, "completed traces retained behind /debug/traces")
		slowMS      = flag.Int("slow-ms", 500, "log a warn line for requests at least this slow, in milliseconds (0 disables)")
		logLevel    = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")

		qstatsOn      = flag.Bool("qstats", true, "per-digest query statistics behind GET /v1/stats/queries")
		qstatsDigests = flag.Int("qstats-digests", 0, "retained query digests before new ones are dropped (0 = default)")
		qstatsSlow    = flag.Int("qstats-slow", 0, "slowest requests retained per table (0 = default)")

		sweepWorkers = flag.Int("sweep-workers", 0, "per-sweep resolution workers (0 = GOMAXPROCS)")
		sweepPoints  = flag.Int("sweep-max-points", 0, "server-side cap on points per sweep (0 = default)")
		jobQueue     = flag.Int("job-queue", 16, "queued (not yet running) sweep jobs before 429")
		jobWorkers   = flag.Int("job-concurrency", 2, "sweep jobs running at once")
		jobTTL       = flag.Duration("job-ttl", 15*time.Minute, "how long finished jobs stay pollable")
		maxJobs      = flag.Int("max-jobs", 64, "retained jobs (queued+running+finished) before 429")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fail(err)
	}
	logger := obs.NewLogger(os.Stderr, level, *logFormat)
	query.DefaultPlanCache().SetCapacity(*planCache)

	opts := core.Options{
		SearchPaths: splitList(*models),
		Remotes:     splitList(*remotes),
		Seed:        *seed,
	}
	if *cacheDir != "" {
		cfg := repo.DefaultFetchConfig()
		cfg.CacheDir = *cacheDir
		opts.Fetch = &cfg
	}
	loader, err := serve.NewToolchainLoader(opts)
	if err != nil {
		fail(err)
	}
	store := serve.NewStore(loader, *maxModels)
	srv := serve.NewServer(serve.Config{
		Store:          store,
		RequestTimeout: *reqTimeout,
		MaxInFlight:    *maxInflight,
		AllowRefresh:   *allowRef,
		WatchBuffer:    *watchBuffer,
		TraceSample:    *traceSample,
		MaxTraces:      *maxTraces,
		SlowRequest:    time.Duration(*slowMS) * time.Millisecond,
		Logger:         logger,
		SweepWorkers:   *sweepWorkers,
		SweepMaxPoints: *sweepPoints,
		JobQueue:       *jobQueue,
		JobConcurrency: *jobWorkers,
		JobTTL:         *jobTTL,
		MaxJobs:        *maxJobs,
		QueryStatsOff:  !*qstatsOn,
		StatsDigests:   *qstatsDigests,
		StatsSlowK:     *qstatsSlow,
	})
	loader.Repo().PublishMetrics(obs.Default())
	obs.RegisterRuntimeMetrics(obs.Default())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, ident := range splitList(*preload) {
		start := time.Now()
		snap, err := store.Get(ctx, ident)
		if err != nil {
			fail(fmt.Errorf("preload %s: %w", ident, err))
		}
		log.Printf("xpdld: preloaded %s (%d nodes, fingerprint %s) in %s",
			ident, snap.Nodes(), snap.Fingerprint, time.Since(start).Round(time.Millisecond))
	}

	if *revalidate > 0 {
		rv := &serve.Revalidator{
			Store:    store,
			Interval: *revalidate,
			Log:      log.Default(),
			Sampler:  srv.Sampler(),
			Traces:   srv.Traces(),
		}
		go rv.Run(ctx)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// The write timeout must cover the request timeout plus the
		// encode of large responses (full-model JSON exports).
		WriteTimeout: *reqTimeout + 30*time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("xpdld: serving platform-model queries on %s (models: %s)", *addr, *models)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
	}
	log.Print("xpdld: shutting down (waiting for in-flight requests)")
	// Watch streams are long-lived requests; end them first or Shutdown
	// would wait for subscribers that never hang up. The same goes for
	// sweep jobs and their event streams: Close cancels running jobs,
	// marks queued ones canceled, and ends every job stream.
	srv.Close()
	store.CloseWatchers()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("xpdld: shutdown: %v", err)
	}
	log.Print("xpdld: bye")
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "xpdld:", err)
	os.Exit(1)
}
