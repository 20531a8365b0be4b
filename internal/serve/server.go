package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"mime"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"sync/atomic"

	"xpdl/internal/composition"
	"xpdl/internal/energy"
	"xpdl/internal/expr"
	"xpdl/internal/obs"
	"xpdl/internal/obs/qstats"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
	"xpdl/internal/scenario"
)

// Request-shape limits: anything beyond them is a client error (4xx),
// never a panic or an unbounded amount of work.
const (
	maxBodyBytes    = 1 << 20 // JSON request bodies
	maxExprBytes    = 16 << 10
	maxSelectorLen  = 4 << 10
	maxSelectorSegs = 128 // "/"-separated selector depth
	maxVars         = 256
	maxVariants     = 128
	maxSelectLimit  = 100000
	maxBatchOps     = 256 // select/eval operations per /batch request
)

// Config tunes the query service.
type Config struct {
	// Store supplies model snapshots; required.
	Store *Store
	// RequestTimeout bounds each API request, queueing included
	// (default 10s; cold model loads run to completion regardless, so
	// the first request for a heavy model may exceed it).
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently served API requests; excess
	// requests wait their turn until RequestTimeout and are answered
	// 503 when the slot never frees (default 256).
	MaxInFlight int
	// AllowRefresh enables POST /v1/models/{model}/refresh, the manual
	// revalidation trigger (on by default in xpdld; off for untrusted
	// deployments since a refresh costs a full toolchain run).
	AllowRefresh bool
	// WatchBuffer sizes each watch subscriber's event queue (default
	// 16). A subscriber that falls this many events behind is evicted.
	WatchBuffer int
	// WatchHeartbeat is the SSE keep-alive comment interval (default
	// 15s), so idle watch streams survive proxies and dead peers are
	// noticed.
	WatchHeartbeat time.Duration

	// SweepWorkers is the per-job parallelism of the scenario engine
	// (default: engine default, sequential point evaluation).
	SweepWorkers int
	// SweepMaxPoints caps the points any one sweep may enumerate;
	// request specs asking for more are clamped (default 4096).
	SweepMaxPoints int
	// JobQueue bounds sweeps waiting for a worker (default 16); a full
	// queue answers 429.
	JobQueue int
	// JobConcurrency is the number of sweeps executing at once
	// (default 2).
	JobConcurrency int
	// JobTTL is how long a finished job's result stays fetchable
	// (default 15m).
	JobTTL time.Duration
	// MaxJobs bounds the retention table, queued and running included
	// (default 64).
	MaxJobs int

	// TraceSample is the head-sampling probability for traces started
	// locally (no incoming traceparent). Error responses (5xx) are
	// always retained regardless. An incoming sampled traceparent is
	// honored as-is, so clients can force a trace end to end. Default 0:
	// only errors and client-forced traces reach /debug/traces.
	TraceSample float64
	// MaxTraces bounds the completed-trace ring buffer behind
	// /debug/traces (default 256).
	MaxTraces int
	// SlowRequest, when > 0, logs one warn-level line (with the trace
	// ID) for every request at least this slow.
	SlowRequest time.Duration
	// Logger receives structured access/slow-request logs. Nil disables
	// logging (the obs.Logger is nil-safe).
	Logger *obs.Logger

	// QueryStatsOff disables the per-digest statement statistics
	// subsystem (GET /v1/stats/queries, xpdl_qstats_* metrics). On by
	// default: the hot-path cost is a few atomic adds per request.
	QueryStatsOff bool
	// StatsDigests bounds the digest table (default
	// qstats.DefaultMaxDigests). Requests whose new digest would exceed
	// it are counted in xpdl_qstats_evicted_total and dropped.
	StatsDigests int
	// StatsSlowK sizes the slow-query ring behind the stats endpoint
	// (default qstats.DefaultSlowK).
	StatsSlowK int
}

// Server answers JSON-over-HTTP platform-model queries against the
// snapshot store. It is an http.Handler; mount it on any mux or serve
// it directly.
type Server struct {
	store        *Store
	mux          *http.ServeMux
	sem          chan struct{}
	timeout      time.Duration
	allowRefresh bool
	slow         time.Duration
	watchHB      time.Duration
	jobs         *jobManager // nil when the loader has no repository

	sampler *obs.Sampler
	traces  *obs.TraceBuffer
	logger  *obs.Logger

	// qstats is the per-digest statement statistics table (nil when
	// disabled; every use is nil-safe). statsN drives 1-in-64 alloc
	// sampling.
	qstats *qstats.Table
	statsN atomic.Int64

	reg      *obs.Registry
	inflight *obs.Gauge
	rejected *obs.Counter
	timeouts *obs.Counter
	recorded *obs.Counter
	statuses map[int]*obs.Counter // by status class: 2,4,5
}

// NewServer builds the query service over cfg.Store.
func NewServer(cfg Config) *Server {
	if cfg.Store == nil {
		panic("serve: Config.Store is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = 256
	}
	if cfg.WatchHeartbeat <= 0 {
		cfg.WatchHeartbeat = 15 * time.Second
	}
	cfg.Store.SetWatchBuffer(cfg.WatchBuffer)
	s := &Server{
		store:        cfg.Store,
		mux:          http.NewServeMux(),
		sem:          make(chan struct{}, cfg.MaxInFlight),
		timeout:      cfg.RequestTimeout,
		allowRefresh: cfg.AllowRefresh,
		slow:         cfg.SlowRequest,
		watchHB:      cfg.WatchHeartbeat,
		sampler:      obs.NewSampler(cfg.TraceSample),
		traces:       obs.NewTraceBuffer(cfg.MaxTraces),
		logger:       cfg.Logger,
		reg:          obs.NewRegistry(),
	}
	s.inflight = s.reg.Gauge("xpdld_inflight_requests", "API requests currently being served.")
	s.rejected = s.reg.Counter("xpdld_rejected_total", "Requests rejected by the concurrency limiter.")
	s.timeouts = s.reg.Counter("xpdld_timeouts_total", "Requests that exceeded the per-request timeout.")
	s.recorded = s.reg.Counter("xpdld_traces_recorded_total", "Completed traces retained in the /debug/traces ring buffer.")
	s.statuses = map[int]*obs.Counter{
		2: s.reg.Counter("xpdld_responses_2xx_total", "API responses with a 2xx status."),
		4: s.reg.Counter("xpdld_responses_4xx_total", "API responses with a 4xx status."),
		5: s.reg.Counter("xpdld_responses_5xx_total", "API responses with a 5xx status."),
	}
	if !cfg.QueryStatsOff {
		s.qstats = qstats.New(qstats.Config{MaxDigests: cfg.StatsDigests, SlowK: cfg.StatsSlowK})
		s.qstats.PublishMetrics(s.reg)
	}
	// The sweep subsystem needs the descriptor repository behind the
	// store; loaders without one (test stubs) leave it disabled and the
	// sweep endpoints answer 501.
	if rp, ok := cfg.Store.Loader().(repoProvider); ok {
		s.jobs = newJobManager(rp, cfg)
		s.jobs.stats = s.qstats
	}
	s.routes()
	return s
}

// QueryStats returns the server's digest-statistics table (nil when
// disabled), so the daemon's shutdown path or tests can inspect it.
func (s *Server) QueryStats() *qstats.Table { return s.qstats }

// Close drains the async job subsystem: running sweeps are canceled,
// their workers joined, and every pending job transitions to a
// terminal state so pollers and streams end cleanly. Idempotent; the
// server keeps answering queries afterwards (new sweeps are refused).
func (s *Server) Close() {
	if s.jobs != nil {
		s.jobs.close()
	}
}

// Registry returns the per-server metrics registry (latency
// histograms, limiter counters); /metrics serves it together with the
// process-wide default registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Traces returns the completed-trace ring buffer behind /debug/traces,
// so the daemon can record revalidator cycles into the same place.
func (s *Server) Traces() *obs.TraceBuffer { return s.traces }

// Sampler returns the server's head sampler (shared with the
// revalidator so background cycles obey the same rate).
func (s *Server) Sampler() *obs.Sampler { return s.sampler }

func (s *Server) routes() {
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /v1/models", "models", s.handleModels)
	s.handle("GET /v1/models/{model}", "model", s.handleModel)
	s.handle("GET /v1/models/{model}/tree", "tree", s.handleTree)
	s.handle("GET /v1/models/{model}/json", "json", s.handleJSON)
	s.handle("GET /v1/models/{model}/summary", "summary", s.handleSummary)
	s.handle("GET /v1/models/{model}/element", "element", s.handleElement)
	s.handle("GET /v1/models/{model}/select", "select", s.handleSelectGet)
	s.handle("POST /v1/models/{model}/select", "select", s.handleSelectPost)
	s.handle("POST /v1/models/{model}/eval", "eval", s.handleEval)
	s.handle("POST /v1/models/{model}/batch", "batch", s.handleBatch)
	s.handle("GET /v1/models/{model}/energy", "energy", s.handleEnergy)
	s.handle("GET /v1/models/{model}/transfer", "transfer", s.handleTransfer)
	s.handle("POST /v1/models/{model}/dispatch", "dispatch", s.handleDispatch)
	if s.allowRefresh {
		s.handle("POST /v1/models/{model}/refresh", "refresh", s.handleRefresh)
	}
	s.handle("POST /v1/models/{model}/sweep", "sweep", s.handleSweep)
	s.handle("GET /v1/stats/queries", "stats", s.handleQueryStats)
	s.handle("GET /v1/jobs", "jobs", s.handleJobs)
	s.handle("GET /v1/jobs/{id}", "job", s.handleJob)
	s.handle("POST /v1/jobs/{id}/cancel", "jobcancel", s.handleJobCancel)
	// The watch stream lives outside the handle wrapper: it is a
	// long-lived connection, so the per-request timeout and the
	// concurrency limiter (sized for millisecond queries) must not apply.
	// The job stream follows a sweep for its whole lifetime, so it lives
	// out here too.
	s.mux.HandleFunc("GET /v1/models/{model}/watch", s.handleWatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	// Observability rides on the same listener: Prometheus text of the
	// server registry plus the process-wide one, pprof, expvar, and the
	// completed-trace ring buffer.
	s.mux.HandleFunc("GET /debug/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	obs.Handle(s.mux, s.reg, obs.Default())
}

// handleTraceList serves summaries of the most recent traces, newest
// first (?n= bounds the count). The introspection endpoints bypass the
// limiter and tracing so they stay usable while the service is
// saturated — exactly when they are needed.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			s.writeError(w, badRequest("n must be a non-negative integer"))
			return
		}
		n = v
	}
	recs := s.traces.Recent(n)
	resp := TraceListResponse{Retained: s.traces.Len(), Capacity: s.traces.Cap(), Traces: []TraceSummary{}}
	for i := range recs {
		resp.Traces = append(resp.Traces, summarizeTrace(&recs[i]))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleTraceGet serves one retained trace as its full span-tree JSON.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.traces.Get(id)
	if !ok {
		s.writeError(w, notFound("trace %q not retained (buffer holds the most recent %d)", id, s.traces.Cap()))
		return
	}
	s.writeJSON(w, http.StatusOK, rec)
}

func summarizeTrace(rec *obs.TraceRecord) TraceSummary {
	return TraceSummary{
		TraceID:    rec.TraceID,
		Name:       rec.Name,
		Start:      rec.Start,
		DurationMS: float64(rec.DurationNS) / 1e6,
		Status:     rec.Status,
		Error:      rec.Error,
		Sampled:    rec.Sampled,
		Spans:      countSpans(&rec.Root),
	}
}

func countSpans(s *obs.SpanSnapshot) int {
	n := 1
	for i := range s.Children {
		n += countSpans(&s.Children[i])
	}
	return n
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// apiError carries an HTTP status through handler returns.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &apiError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// request is one API request as its handler sees it: the HTTP
// request, the response headers, the context carrying the trace and
// the per-request timeout, and the protocol negotiated once by
// acceptsBinary. Handlers leave in it what the statistics need: the
// snapshot that answered and the selector's shape.
type request struct {
	r      *http.Request
	ctx    context.Context
	header http.Header
	bin    bool
	// rec is set when the request is recorded in the digest table;
	// only then does a select work out its selector's shape.
	rec   bool
	snap  *Snapshot
	shape selShape
}

// selShape is a selector's digest shape (qstats Key.Shape and
// Key.ShapeHash).
type selShape struct {
	text string
	hash uint64
}

// shapeOut returns where a select reports its selector's shape, nil
// when the request is not recorded.
func (q *request) shapeOut() *selShape {
	if !q.rec {
		return nil
	}
	return &q.shape
}

// handler is the shape of all API endpoints behind handle: return the
// answer or an error (apiError for client errors); send writes either.
type handler func(q *request) (any, error)

// rawBody is a byte-stream answer (text tree, JSON export) rendered
// once per snapshot: classic clients get body as contentType, binary
// clients the same bytes behind a frame header of type frame.
type rawBody struct {
	frame       rtmodel.FrameType
	contentType string
	body        []byte
}

const contentTypeJSON = "application/json; charset=utf-8"

// startTrace extracts-or-starts the request trace. A valid incoming
// traceparent joins the caller's trace (its sampled flag is honored
// as-is, so clients can force a recorded trace end to end); an absent
// or malformed header starts a fresh trace sampled by the server's
// head sampler. Malformed headers are deliberately ignored, never an
// error: tracing must not fail a request.
func (s *Server) startTrace(r *http.Request, name string) *obs.Trace {
	var parent obs.SpanID
	tc, err := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	if err == nil {
		parent = tc.SpanID
		tc.SpanID = obs.NewSpanID()
	} else {
		tc = obs.TraceContext{
			TraceID: obs.NewTraceID(),
			SpanID:  obs.NewSpanID(),
			Sampled: s.sampler.Sample(),
		}
	}
	tr := obs.StartTrace(r.Method+" "+name, tc, parent)
	tr.Span().SetAttr("path", r.URL.Path)
	return tr
}

// finishRequest completes the per-request bookkeeping: the latency
// observation carries the trace ID as an exemplar, sampled or errored
// (5xx) traces are retained in the ring buffer, and requests above the
// slow threshold earn a warn-level log line.
func (s *Server) finishRequest(ctx context.Context, tr *obs.Trace, r *http.Request,
	name, traceID string, status int, errMsg string, start time.Time, lat *obs.Histogram) {
	dur := time.Since(start)
	lat.ObserveExemplar(dur.Seconds(), traceID)
	if tr.Sampled() || status >= 500 {
		s.traces.Add(tr.Finish(status, errMsg))
		s.recorded.Inc()
	}
	level, msg := obs.LevelDebug, "request"
	if s.slow > 0 && dur >= s.slow {
		level, msg = obs.LevelWarn, "slow request"
	}
	// Checked first so the argument list is not built (status and
	// duration boxed) for a record the logger drops.
	if s.logger.Enabled(level) {
		s.logger.Log(ctx, level, msg, "method", r.Method, "endpoint", name,
			"path", r.URL.Path, "status", status, "duration_ms", float64(dur.Nanoseconds())/1e6)
	}
}

// handle wraps an endpoint with the production plumbing: per-request
// tracing, the concurrency limiter, the per-request timeout, status
// counters and a per-endpoint latency histogram named
// xpdld_<name>_seconds (whose buckets carry trace-ID exemplars in the
// OpenMetrics exposition). The handler only computes its answer; send
// writes it.
func (s *Server) handle(pattern, name string, h handler) {
	lat := s.reg.Histogram("xpdld_"+name+"_seconds",
		"Latency of the "+name+" endpoint in seconds.", nil)
	shed := s.reg.CounterWith("xpdld_shed_total",
		"Requests shed by the concurrency limiter, by endpoint.",
		"endpoint", name)
	// The stats endpoint is excluded from its own accounting (a poller
	// must not perturb the table it reads) and healthz is probe noise.
	recordable := name != "stats" && name != "healthz"
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := s.startTrace(r, name)
		traceID := tr.Context().TraceID.String()
		// The response always names its trace so clients (and the load
		// generator) can correlate even server-sampled requests.
		w.Header().Set("X-Xpdl-Trace", traceID)
		ctx, cancel := context.WithTimeout(obs.ContextWithTrace(r.Context(), tr), s.timeout)
		defer cancel()
		q := &request{r: r, ctx: ctx, header: w.Header(), bin: acceptsBinary(r),
			rec: recordable && s.qstats != nil}
		var (
			ans     any
			err     error
			errMsg  string
			sampled bool
			alloc0  int64
		)
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			s.inflight.Add(1)
			defer s.inflight.Add(-1)
			// 1-in-64 requests sample the process allocation counter
			// around the handler and the write; the delta approximates
			// this digest's allocs/op.
			if sampled = q.rec && s.statsN.Add(1)&63 == 0; sampled {
				alloc0 = qstats.AllocObjects()
			}
			ans, err = h(q)
			if err = s.timedOut(err); err != nil {
				errMsg = err.Error()
			}
		case <-ctx.Done():
			s.rejected.Inc()
			shed.Inc()
			q.header.Set("Retry-After", "1")
			err, errMsg = errSaturated, "server saturated"
		}
		status, n := s.send(w, q.bin, ans, err)
		if q.rec {
			allocs := int64(-1)
			if sampled {
				allocs = qstats.AllocObjects() - alloc0
			}
			s.recordStats(q, name, status, n, traceID, time.Since(start), ans, allocs)
		}
		s.finishRequest(ctx, tr, r, name, traceID, status, errMsg, start, lat)
	})
}

// The wrapper's own answers: a request that never got a limiter slot,
// and one whose handler ran past the per-request timeout.
var (
	errSaturated = &apiError{status: http.StatusServiceUnavailable, msg: "server saturated; retry later"}
	errTimedOut  = &apiError{status: http.StatusServiceUnavailable, msg: "request timed out"}
)

// timedOut answers a handler error that hit the per-request deadline
// with 503 "request timed out", counting it; other errors pass through.
func (s *Server) timedOut(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		s.timeouts.Inc()
		return errTimedOut
	}
	return err
}

// acceptsBinary reports whether the request negotiated the binary
// protocol. Only an explicit Accept of the binary media type opts in;
// absent, */* and application/json all stay on the classic answers, so
// existing clients keep byte-identical responses.
func acceptsBinary(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	if accept == ContentTypeBinary {
		return true // the header every binary client sends: no parse
	}
	if !strings.Contains(accept, ContentTypeBinary) {
		return false // fast path: no substring, no parse
	}
	for _, part := range strings.Split(accept, ",") {
		mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err == nil && mt == ContentTypeBinary {
			return true
		}
	}
	return false
}

// send writes a handler's answer, or its error, in the negotiated
// protocol and returns the status and the bytes written. It counts the
// status class, the protocol and pre-serialization hits. The answer is
// one of:
//   - *preEncoded: a summary or element answer pre-serialized for the
//     snapshot in both protocols, written as is;
//   - *rawBody: a byte-stream answer rendered once per snapshot, sent
//     bare or behind a binary frame header;
//   - a pointer to an answer struct, encoded now: in binary when it has
//     a wire layout and the client asked for one, in indented JSON
//     otherwise (the sweep and job answers have no binary form).
//
// ResponseWriter.Write never retains its argument, which is what makes
// recycling the encoder and the buffer safe.
func (s *Server) send(w http.ResponseWriter, bin bool, ans any, err error) (int, int64) {
	status := http.StatusOK
	if err != nil {
		status, ans = errStatus(err), &ErrorResponse{Error: err.Error()}
	}
	var (
		contentType = contentTypeJSON
		head, body  []byte // head: a binary frame header written before body
	)
	switch a := ans.(type) {
	case *preEncoded:
		mPreserHits.Inc()
		body = a.body
		if bin {
			contentType, body = ContentTypeBinary, a.bin
		}
	case *rawBody:
		mPreserHits.Inc()
		contentType, body = a.contentType, a.body
		if bin {
			contentType, head = ContentTypeBinary, frameHeader(a.frame, len(body))
		}
	default:
		if m, ok := ans.(binaryMessage); ok && bin {
			e := getEnc()
			defer putEnc(e)
			m.wire(codec{e: e})
			contentType, head, body = ContentTypeBinary, frameHeader(m.frame(), len(e.Buf)), e.Buf
		} else {
			buf := getBuf()
			defer putBuf(buf)
			encodeIndented(buf, ans)
			body = buf.Bytes()
		}
	}
	if contentType == ContentTypeBinary {
		mProtoBin.Inc()
	} else {
		mProtoJSON.Inc()
	}
	return status, s.reply(w, status, contentType, head, body)
}

// frameHeader renders the wire and frame header of an n-byte binary
// payload, so header and payload go out as two Writes and nothing is
// copied.
func frameHeader(t rtmodel.FrameType, n int) []byte {
	hdr := make([]byte, rtmodel.MaxFrameHeader)
	k := rtmodel.PutWireHeader(hdr)
	return hdr[:k+rtmodel.PutFrameHeader(hdr[k:], t, n)]
}

// reply writes status with its Content-Type, then head (if any) and
// body, and returns the bytes written.
func (s *Server) reply(w http.ResponseWriter, status int, contentType string, head, body []byte) int64 {
	s.countStatus(status)
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	var n int
	if len(head) > 0 {
		n, _ = w.Write(head)
	}
	m, _ := w.Write(body)
	return int64(n + m)
}

// writeJSON renders v into a pooled buffer and writes it in one call,
// for the endpoints outside handle (watch, job stream, traces).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	encodeIndented(buf, v)
	s.reply(w, status, contentTypeJSON, nil, buf.Bytes())
	putBuf(buf)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.writeJSON(w, errStatus(err), ErrorResponse{Error: err.Error()})
}

func errStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	return http.StatusInternalServerError
}

func (s *Server) countStatus(status int) {
	if c, ok := s.statuses[status/100]; ok {
		c.Inc()
	}
}

// snapshot resolves the {model} path segment into the current
// snapshot and keeps it on the request, whose statistics name its
// generation.
func (s *Server) snapshot(q *request) (*Snapshot, error) {
	snap, err := s.lookup(q.ctx, q.header, q.r.PathValue("model"))
	q.snap = snap
	return snap, err
}

// lookup returns the current snapshot of ident, stamping the
// generation headers so clients (and the hot-swap stress test) can
// observe which generation answered. A load that ran out of time
// returns the context's error, which the caller answers 503; any
// other failure is a 404.
func (s *Server) lookup(ctx context.Context, h http.Header, ident string) (*Snapshot, error) {
	if ident == "" {
		return nil, badRequest("missing model identifier")
	}
	snap, err := s.store.Get(ctx, ident)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, err
		}
		return nil, notFound("model %q: %v", ident, err)
	}
	h.Set("X-Xpdl-Generation", strconv.FormatUint(snap.Gen, 10))
	h.Set("X-Xpdl-Fingerprint", snap.Fingerprint)
	return snap, nil
}

// ---- endpoints ----

func (s *Server) handleHealthz(q *request) (any, error) {
	return &HealthResponse{
		Status:     "ok",
		Resident:   s.store.Resident(),
		Generation: s.store.Generation(),
	}, nil
}

func (s *Server) handleModels(q *request) (any, error) {
	resp := ModelsResponse{Models: []ModelInfo{}}
	for _, ident := range s.store.Resident() {
		if snap, ok := s.store.Peek(ident); ok {
			resp.Models = append(resp.Models, infoOf(snap))
		}
	}
	return &resp, nil
}

func (s *Server) handleModel(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	info := infoOf(snap)
	return &info, nil
}

func (s *Server) handleTree(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	return &rawBody{frame: frameRawTree, contentType: "text/plain; charset=utf-8", body: snap.pre.tree}, nil
}

func (s *Server) handleJSON(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	return &rawBody{frame: frameRawJSON, contentType: contentTypeJSON, body: snap.exportJSON()}, nil
}

func (s *Server) handleSummary(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	return &snap.pre.summary, nil
}

func (s *Server) handleElement(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	ident := q.r.URL.Query().Get("ident")
	if ident == "" {
		return nil, badRequest("missing ?ident= query parameter")
	}
	pe, ok := snap.preElement(ident)
	if !ok {
		return nil, notFound("element %q not found in model %q", ident, snap.Ident)
	}
	return pe, nil
}

// checkSelector applies the shape limits shared by the GET and POST
// selector paths.
func checkSelector(sel string) error {
	if sel == "" {
		return badRequest("missing selector")
	}
	if len(sel) > maxSelectorLen {
		return badRequest("selector longer than %d bytes", maxSelectorLen)
	}
	if strings.Count(sel, "/") > maxSelectorSegs {
		return badRequest("selector deeper than %d segments", maxSelectorSegs)
	}
	return nil
}

// runSelect answers one selector; when shape is set it also reports
// the selector's digest shape there.
func (s *Server) runSelect(shape *selShape, snap *Snapshot, sel string, limit int) (SelectResponse, error) {
	if err := checkSelector(sel); err != nil {
		return SelectResponse{}, err
	}
	if limit < 0 || limit > maxSelectLimit {
		return SelectResponse{}, badRequest("limit must be in [0, %d]", maxSelectLimit)
	}
	if shape != nil {
		// The plan is (or is about to be) resident in the default plan
		// cache, so digesting the selector's shape here is a cache hit,
		// not a second parse.
		if text, hash, err := query.ShapeOf(sel); err == nil {
			*shape = selShape{text: text, hash: hash}
		}
	}
	elems, err := snap.Session.Select(sel)
	if err != nil {
		return SelectResponse{}, badRequest("selector: %v", err)
	}
	resp := SelectResponse{Count: len(elems), Elements: []ElementRef{}}
	if limit > 0 && len(elems) > limit {
		elems = elems[:limit]
	}
	for _, e := range elems {
		resp.Elements = append(resp.Elements, refOf(e))
	}
	return resp, nil
}

func (s *Server) handleSelectGet(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	limit := 0
	if raw := q.r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil {
			return nil, badRequest("limit: %v", err)
		}
	}
	resp, err := s.runSelect(q.shapeOut(), snap, q.r.URL.Query().Get("q"), limit)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

func (s *Server) handleSelectPost(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	var req SelectRequest
	if err := decodeJSON(q.r, &req); err != nil {
		return nil, err
	}
	resp, err := s.runSelect(q.shapeOut(), snap, req.Selector, req.Limit)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

func (s *Server) runEval(snap *Snapshot, req EvalRequest) (EvalResponse, error) {
	if req.Expr == "" {
		return EvalResponse{}, badRequest("missing expr")
	}
	if len(req.Expr) > maxExprBytes {
		return EvalResponse{}, badRequest("expr longer than %d bytes", maxExprBytes)
	}
	if len(req.Vars) > maxVars {
		return EvalResponse{}, badRequest("more than %d vars", maxVars)
	}
	vars, err := toExprVars(req.Vars)
	if err != nil {
		return EvalResponse{}, badRequest("%v", err)
	}
	v, err := query.EvalExpr(req.Expr, snap.Session.Env(vars))
	if err != nil {
		return EvalResponse{}, badRequest("eval: %v", err)
	}
	return evalResponseOf(v), nil
}

func (s *Server) handleEval(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	var req EvalRequest
	if err := decodeJSON(q.r, &req); err != nil {
		return nil, err
	}
	resp, err := s.runEval(snap, req)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// handleBatch executes many select/eval operations against one
// consistent snapshot in a single round trip — the amortized client
// path (cmd/xpdlload -batch). Per-operation failures are reported
// in-band per result; the request itself fails only on malformed or
// oversized envelopes, so one bad selector cannot void its siblings.
func (s *Server) handleBatch(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	var req BatchRequest
	if err := decodeJSON(q.r, &req); err != nil {
		return nil, err
	}
	if len(req.Ops) == 0 {
		return nil, badRequest("missing ops")
	}
	if len(req.Ops) > maxBatchOps {
		return nil, badRequest("more than %d ops", maxBatchOps)
	}
	resp := BatchResponse{Results: make([]BatchResult, len(req.Ops))}
	// Each sub-op is digested individually (batch.select / batch.eval)
	// so per-query attribution survives batching; the envelope itself
	// is recorded by the middleware under "batch".
	for i := range req.Ops {
		op := &req.Ops[i]
		res := &resp.Results[i]
		opStart := time.Now()
		var shape selShape
		var rows int64
		endpoint := "batch." + op.Op
		switch op.Op {
		case "select":
			sel, err := s.runSelect(&shape, snap, op.Selector, op.Limit)
			if err != nil {
				res.Error = err.Error()
			} else {
				res.Select = &sel
				rows = int64(sel.Count)
			}
		case "eval":
			ev, err := s.runEval(snap, EvalRequest{Expr: op.Expr, Vars: op.Vars})
			if err != nil {
				res.Error = err.Error()
			} else {
				res.Eval = &ev
				rows = 1
			}
		default:
			endpoint = "batch.unknown"
			res.Error = fmt.Sprintf("unknown op %q (want \"select\" or \"eval\")", op.Op)
		}
		s.qstats.Record(qstats.Key{
			Endpoint:  endpoint,
			Model:     snap.Ident,
			Shape:     shape.text,
			ShapeHash: shape.hash,
			Proto:     protoName(q.bin),
		}, qstats.Sample{
			Latency:    time.Since(opStart),
			Rows:       rows,
			Err:        res.Error != "",
			Generation: int64(snap.Gen),
			Allocs:     -1,
		})
	}
	return &resp, nil
}

func evalResponseOf(v expr.Value) EvalResponse {
	resp := EvalResponse{Text: v.GoString()}
	switch v.Kind {
	case expr.KindNumber:
		resp.Kind, resp.Num = "number", v.Num
	case expr.KindBool:
		resp.Kind, resp.Bool = "bool", v.Bool
	default:
		resp.Kind, resp.Str = "string", v.Str
	}
	return resp
}

func (s *Server) handleEnergy(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	v := q.r.URL.Query()
	tableID := v.Get("table")
	if tableID == "" {
		return nil, badRequest("missing ?table= query parameter")
	}
	comp := snap.System.FindByID(tableID)
	if comp == nil || comp.Kind != "instructions" {
		return nil, notFound("instruction table %q not found in model %q", tableID, snap.Ident)
	}
	table, err := energy.TableFromComponent(comp)
	if err != nil {
		return nil, &apiError{status: http.StatusUnprocessableEntity,
			msg: fmt.Sprintf("table %q: %v", tableID, err)}
	}
	resp := EnergyResponse{Table: tableID}
	inst := v.Get("inst")
	if inst == "" {
		resp.Instructions = table.Names()
		resp.Unknowns = table.Unknowns()
		return &resp, nil
	}
	ghzRaw := v.Get("ghz")
	if ghzRaw == "" {
		return nil, badRequest("missing ?ghz= query parameter")
	}
	ghz, err := strconv.ParseFloat(ghzRaw, 64)
	if err != nil || math.IsNaN(ghz) || math.IsInf(ghz, 0) || ghz <= 0 {
		return nil, badRequest("ghz must be a positive number")
	}
	e, ok := table.EnergyAt(inst, ghz)
	if !ok {
		return nil, notFound("instruction %q has no energy at %g GHz in table %q", inst, ghz, tableID)
	}
	resp.Inst, resp.GHz, resp.EnergyJ = inst, ghz, &e
	return &resp, nil
}

func (s *Server) handleTransfer(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	v := q.r.URL.Query()
	chID := v.Get("channel")
	if chID == "" {
		return nil, badRequest("missing ?channel= query parameter")
	}
	comp := snap.System.FindByID(chID)
	if comp == nil || (comp.Kind != "channel" && comp.Kind != "interconnect") {
		return nil, notFound("channel %q not found in model %q", chID, snap.Ident)
	}
	parseCount := func(key string, def int64) (int64, error) {
		raw := v.Get(key)
		if raw == "" {
			return def, nil
		}
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || n < 0 {
			return 0, badRequest("%s must be a non-negative integer", key)
		}
		return n, nil
	}
	bytes, err := parseCount("bytes", 0)
	if err != nil {
		return nil, err
	}
	messages, err := parseCount("messages", 1)
	if err != nil {
		return nil, err
	}
	tc := energy.ChannelCost(comp)
	timeS, energyJ := tc.Cost(bytes, messages)
	return &TransferResponse{
		Channel:      chID,
		BandwidthBps: tc.BandwidthBps,
		Bytes:        bytes,
		Messages:     messages,
		TimeS:        timeS,
		EnergyJ:      energyJ,
	}, nil
}

func (s *Server) handleDispatch(q *request) (any, error) {
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	var req DispatchRequest
	if err := decodeJSON(q.r, &req); err != nil {
		return nil, err
	}
	if len(req.Variants) == 0 {
		return nil, badRequest("missing variants")
	}
	if len(req.Variants) > maxVariants {
		return nil, badRequest("more than %d variants", maxVariants)
	}
	if len(req.Vars) > maxVars {
		return nil, badRequest("more than %d vars", maxVars)
	}
	for _, v := range req.Variants {
		if v.Name == "" {
			return nil, badRequest("variant without a name")
		}
		if len(v.Selectable) > maxExprBytes || len(v.Cost) > maxExprBytes {
			return nil, badRequest("variant %q: expression longer than %d bytes", v.Name, maxExprBytes)
		}
	}
	vars, err := toExprVars(req.Vars)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	ctx := composition.Context{Session: snap.Session, Vars: vars}
	env := ctx.Env()
	comp := &composition.Component{Name: req.Component}
	costs := map[string]float64{}
	for _, vj := range req.Variants {
		costExpr := vj.Cost
		name := vj.Name
		comp.Variants = append(comp.Variants, &composition.Variant{
			Name:       vj.Name,
			Selectable: vj.Selectable,
			Cost: func(composition.Context) float64 {
				if costExpr == "" {
					return 0
				}
				v, err := query.EvalExpr(costExpr, env)
				if err != nil || v.Kind != expr.KindNumber {
					return math.MaxFloat64
				}
				costs[name] = v.Num
				return v.Num
			},
		})
	}
	// One Selectable pass feeds both the answer's list and the ranking,
	// so each guard and each cost is evaluated once.
	selectable, selErr := comp.Selectable(ctx)
	chosen, err := comp.Rank(ctx, selectable, selErr)
	if err != nil {
		return nil, &apiError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	resp := DispatchResponse{Selectable: []string{}, Chosen: chosen.Name, Costs: costs}
	for _, v := range selectable {
		resp.Selectable = append(resp.Selectable, v.Name)
	}
	sort.Strings(resp.Selectable)
	if selErr != nil {
		resp.Warning = selErr.Error()
	}
	return &resp, nil
}

func (s *Server) handleRefresh(q *request) (any, error) {
	ident := q.r.PathValue("model")
	if ident == "" {
		return nil, badRequest("missing model identifier")
	}
	// Drop loader caches first so the refresh observes edited files and
	// changed remote descriptors — the same sequence the background
	// revalidator runs.
	s.store.InvalidateLoader()
	res, err := s.store.RefreshDetail(q.ctx, ident)
	if err != nil {
		return nil, fmt.Errorf("refresh %q: %w", ident, err)
	}
	snap, ok := s.store.Peek(ident)
	if !ok {
		return nil, notFound("model %q is not resident", ident)
	}
	return &RefreshResponse{Ident: ident, Swapped: res.Swapped, Generation: snap.Gen, Delta: res.Delta}, nil
}

// ---- sweep jobs ----

// jobsOr501 gates the sweep endpoints on the subsystem being wired.
func (s *Server) jobsOr501() (*jobManager, error) {
	if s.jobs == nil {
		return nil, &apiError{status: http.StatusNotImplemented,
			msg: "sweep jobs unavailable: the configured loader exposes no descriptor repository"}
	}
	return s.jobs, nil
}

func (s *Server) handleSweep(q *request) (any, error) {
	m, err := s.jobsOr501()
	if err != nil {
		return nil, err
	}
	// Resolve the model first so bad identifiers 404 before queueing
	// (and the generation headers stamp which snapshot gated the check;
	// the sweep itself resolves fresh trees from the repository).
	snap, err := s.snapshot(q)
	if err != nil {
		return nil, err
	}
	var spec scenario.Spec
	if err := decodeJSON(q.r, &spec); err != nil {
		return nil, err
	}
	j, err := m.submit(snap.Ident, &spec)
	if err != nil {
		return nil, err
	}
	info := j.info(false)
	return &SweepAccepted{Job: info.ID, Model: info.Model, State: info.State, Total: info.Total}, nil
}

func (s *Server) handleJobs(q *request) (any, error) {
	m, err := s.jobsOr501()
	if err != nil {
		return nil, err
	}
	return &JobsResponse{Jobs: m.list()}, nil
}

func (s *Server) handleJob(q *request) (any, error) {
	m, err := s.jobsOr501()
	if err != nil {
		return nil, err
	}
	j, ok := m.get(q.r.PathValue("id"))
	if !ok {
		return nil, notFound("job %q not found", q.r.PathValue("id"))
	}
	info := j.info(q.r.URL.Query().Get("points") == "1")
	return &info, nil
}

func (s *Server) handleJobCancel(q *request) (any, error) {
	m, err := s.jobsOr501()
	if err != nil {
		return nil, err
	}
	info, err := m.cancelJob(q.r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	return &info, nil
}

// handleJobStream follows one job's progress over SSE: history after
// the resume cursor replays first, live per-point events follow, and
// the stream ends right after the terminal event.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	m, err := s.jobsOr501()
	if err != nil {
		s.writeError(w, err)
		return
	}
	j, ok := m.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, notFound("job %q not found", r.PathValue("id")))
		return
	}
	since, err := sinceOf(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ch, cancelSub := j.log.subscribe(since, jobStreamBuffer)
	defer cancelSub()
	writeSSE(s, w, r, "streaming "+j.id, ch)
}

// handleWatch streams generation-change events for one model:
// Server-Sent Events when the client accepts text/event-stream, a
// bounded long poll (?since=&wait=) otherwise.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	ident := r.PathValue("model")
	// Ensure the model is resident (404s early for bad identifiers, 503s
	// a load that runs out of time); only the load is bounded by the
	// request timeout, not the stream.
	loadCtx, cancel := context.WithTimeout(r.Context(), s.timeout)
	_, err := s.lookup(loadCtx, w.Header(), ident)
	cancel()
	if err != nil {
		s.writeError(w, s.timedOut(err))
		return
	}
	since, err := sinceOf(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if !strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.watchPoll(w, r, ident, since)
		return
	}
	ch, cancelSub := s.store.Watch(ident, since)
	defer cancelSub()
	gWatchSSE.Add(1)
	defer gWatchSSE.Add(-1)
	writeSSE(s, w, r, "watching "+ident, ch)
}

// sinceOf reads a stream's resume cursor. ?since= wins; the
// SSE-standard Last-Event-ID header is the fallback, so a
// spec-compliant SSE client reconnecting after a drop resumes
// losslessly.
func sinceOf(r *http.Request) (uint64, error) {
	raw := r.URL.Query().Get("since")
	if raw == "" {
		raw = r.Header.Get("Last-Event-ID")
	}
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, badRequest("since must be a non-negative integer")
	}
	return v, nil
}

// writeSSE streams a subscription as Server-Sent Events: one frame per
// event (its type, "id: <seq>" and JSON data), heartbeat comments in
// between, and an "event: eof" frame when the channel closes — the
// server ended the stream (a job's terminal event, slow-consumer
// eviction, graceful drain). A bare TCP close is indistinguishable from
// a crashed connection; the eof lets reconnecting clients tell "server
// ended the stream" from "stream dropped".
func writeSSE[E logEvent[E]](s *Server, w http.ResponseWriter, r *http.Request, banner string, ch <-chan E) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, &apiError{status: http.StatusNotImplemented, msg: "streaming unsupported"})
		return
	}
	// The stream outlives the server's WriteTimeout by design; roll the
	// write deadline forward while the peer keeps accepting writes.
	rc := http.NewResponseController(w)
	extend := func() { _ = rc.SetWriteDeadline(time.Now().Add(4 * s.watchHB)) }
	extend()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	s.countStatus(http.StatusOK)
	fmt.Fprintf(w, ": %s\n\n", banner)
	fl.Flush()
	hb := time.NewTicker(s.watchHB)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			extend()
			if !open {
				fmt.Fprint(w, "event: eof\ndata: {}\n\n")
				fl.Flush()
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			typ, id := ev.sseFrame()
			fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", typ, id, data)
			fl.Flush()
		case <-hb.C:
			extend()
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		}
	}
}

// maxWatchWait caps the long-poll hold so a forgotten wait= cannot pin
// a connection forever.
const maxWatchWait = time.Minute

// watchPoll is the long-poll fallback: return buffered events after
// ?since= immediately, or hold up to ?wait= for the first new one.
func (s *Server) watchPoll(w http.ResponseWriter, r *http.Request, ident string, since uint64) {
	wait := time.Duration(0)
	if raw := r.URL.Query().Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			s.writeError(w, badRequest("wait must be a duration like 30s"))
			return
		}
		wait = min(d, maxWatchWait)
	}
	evs, next := s.store.WatchEvents(ident, since)
	if len(evs) == 0 && wait > 0 {
		ch, cancelSub := s.store.Watch(ident, since)
		gWatchPoll.Add(1)
		timer := time.NewTimer(wait)
		select {
		case <-r.Context().Done():
		case <-timer.C:
		case ev, open := <-ch:
			if open {
				evs = append(evs, ev)
				next = ev.Seq
			drain:
				for {
					select {
					case ev, open := <-ch:
						if !open {
							break drain
						}
						evs = append(evs, ev)
						next = ev.Seq
					default:
						break drain
					}
				}
			}
		}
		timer.Stop()
		gWatchPoll.Add(-1)
		cancelSub()
	}
	if evs == nil {
		evs = []WatchEvent{}
	}
	s.writeJSON(w, http.StatusOK, WatchPollResponse{Model: ident, Events: evs, Next: next})
}

// decodeJSON reads a bounded JSON body into dst, mapping every decode
// failure to a 400.
func decodeJSON(r *http.Request, dst any) error {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(dst); err != nil {
		return badRequest("request body: %v", err)
	}
	// Trailing garbage after the JSON document is also a client error.
	if dec.More() {
		return badRequest("request body: trailing data after JSON document")
	}
	return nil
}
