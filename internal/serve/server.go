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
	"xpdl/internal/model"
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

// handler is the shape of all API endpoints: return a JSON-marshalable
// payload or an error (apiError for client errors).
type handler func(w http.ResponseWriter, r *http.Request) (any, error)

// statusWriter captures the status code a handler wrote so the
// middleware can stamp it onto the trace and the logs, and counts
// response bytes for the per-digest statistics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

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
	durMS := float64(dur.Nanoseconds()) / 1e6
	if s.slow > 0 && dur >= s.slow {
		s.logger.Warn(ctx, "slow request", "method", r.Method, "endpoint", name,
			"path", r.URL.Path, "status", status, "duration_ms", durMS)
	} else {
		s.logger.Debug(ctx, "request", "method", r.Method, "endpoint", name,
			"path", r.URL.Path, "status", status, "duration_ms", durMS)
	}
}

// handle wraps an endpoint with the production plumbing: per-request
// tracing, the concurrency limiter, the per-request timeout, status
// counters and a per-endpoint latency histogram named
// xpdld_<name>_seconds (whose buckets carry trace-ID exemplars in the
// OpenMetrics exposition).
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
		bin := acceptsBinary(r)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ctx, cancel := context.WithTimeout(obs.ContextWithTrace(r.Context(), tr), s.timeout)
		defer cancel()
		var acc *reqAcc
		if recordable && s.qstats != nil {
			acc = getAcc()
			defer putAcc(acc)
			ctx = context.WithValue(ctx, accCtxKey{}, acc)
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			s.rejected.Inc()
			shed.Inc()
			sw.Header().Set("Retry-After", "1")
			s.writeErrorProto(sw, bin, &apiError{status: http.StatusServiceUnavailable,
				msg: "server saturated; retry later"})
			if acc != nil {
				s.recordStats(r, name, bin, acc, sw, traceID, time.Since(start), nil, -1)
			}
			s.finishRequest(ctx, tr, r, name, traceID, sw.status, "server saturated", start, lat)
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		// 1-in-64 requests sample the process allocation counter around
		// the handler; the delta approximates this digest's allocs/op.
		allocs := int64(-1)
		alloc0 := int64(0)
		sampled := acc != nil && s.statsN.Add(1)&63 == 0
		if sampled {
			alloc0 = qstats.AllocObjects()
		}

		payload, err := h(sw, r.WithContext(ctx))
		var errMsg string
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				s.timeouts.Inc()
				err = &apiError{status: http.StatusServiceUnavailable, msg: "request timed out"}
			}
			errMsg = err.Error()
			s.writeErrorProto(sw, bin, err)
		} else if payload != nil {
			s.writeAPI(sw, bin, http.StatusOK, payload)
		}
		if sampled {
			allocs = qstats.AllocObjects() - alloc0
		}
		if acc != nil {
			s.recordStats(r, name, bin, acc, sw, traceID, time.Since(start), payload, allocs)
		}
		s.finishRequest(ctx, tr, r, name, traceID, sw.status, errMsg, start, lat)
	})
}

// acceptsBinary reports whether the request negotiated the binary
// protocol. Only an explicit Accept of the binary media type opts in;
// absent, */* and application/json all stay on the classic answers, so
// existing clients keep byte-identical responses.
func acceptsBinary(r *http.Request) bool {
	accept := r.Header.Get("Accept")
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

// writeAPI writes a negotiated API answer: the binary envelope when
// the client asked for one and the payload has a binary form, the
// classic JSON rendering otherwise.
func (s *Server) writeAPI(w http.ResponseWriter, bin bool, status int, v any) {
	if bin {
		if m, ok := binaryMessageOf(v); ok {
			s.writeBinary(w, status, m)
			return
		}
	}
	mProtoJSON.Inc()
	s.writeJSON(w, status, v)
}

// writeBinary writes one binary envelope from a pooled encoder. The
// stack-array header and the pooled payload go out as two Writes, so
// nothing is copied; ResponseWriter.Write never retains its argument,
// which is what makes recycling the encoder safe.
func (s *Server) writeBinary(w http.ResponseWriter, status int, m binaryMessage) {
	e := getEnc()
	m.encodeTo(e)
	var hdr [rtmodel.MaxFrameHeader]byte
	n := rtmodel.PutWireHeader(hdr[:])
	n += rtmodel.PutFrameHeader(hdr[n:], m.frame(), len(e.Buf))
	mProtoBin.Inc()
	s.countStatus(status)
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.WriteHeader(status)
	_, _ = w.Write(hdr[:n])
	_, _ = w.Write(e.Buf)
	putEnc(e)
}

// writeRawBinary writes a byte-stream answer (tree, JSON export) as a
// raw binary frame.
func (s *Server) writeRawBinary(w http.ResponseWriter, t rtmodel.FrameType, payload []byte) {
	var hdr [rtmodel.MaxFrameHeader]byte
	n := rtmodel.PutWireHeader(hdr[:])
	n += rtmodel.PutFrameHeader(hdr[n:], t, len(payload))
	mProtoBin.Inc()
	s.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(hdr[:n])
	_, _ = w.Write(payload)
}

// writePre writes a response pre-serialized at snapshot-publish time:
// one counter bump and one (or two) Writes, no marshaling at all.
func (s *Server) writePre(w http.ResponseWriter, bin bool, p *preEncoded, classicType string) {
	mPreserHits.Inc()
	s.countStatus(http.StatusOK)
	if bin {
		mProtoBin.Inc()
		w.Header().Set("Content-Type", ContentTypeBinary)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(p.bin)
		return
	}
	mProtoJSON.Inc()
	w.Header().Set("Content-Type", classicType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.body)
}

// writeJSON renders v into a pooled buffer and writes it in one call.
// The rendering (two-space indent, trailing Encode newline) is the
// byte-level contract existing clients depend on; marshalIndented and
// the pre-serialized answers reproduce it exactly.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.countStatus(status)
	buf := getBuf()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	putBuf(buf)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.writeJSON(w, errStatus(err), ErrorResponse{Error: err.Error()})
}

// writeErrorProto writes the error envelope in the negotiated
// protocol: binary clients get an error frame, everyone else the JSON
// envelope.
func (s *Server) writeErrorProto(w http.ResponseWriter, bin bool, err error) {
	if bin {
		s.writeBinary(w, errStatus(err), &ErrorResponse{Error: err.Error()})
		return
	}
	mProtoJSON.Inc()
	s.writeError(w, err)
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
// snapshot, stamping the generation headers so clients (and the
// hot-swap stress test) can observe which generation answered.
func (s *Server) snapshot(w http.ResponseWriter, r *http.Request) (*Snapshot, error) {
	ident := r.PathValue("model")
	if ident == "" {
		return nil, badRequest("missing model identifier")
	}
	snap, err := s.store.Get(r.Context(), ident)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, err
		}
		return nil, notFound("model %q: %v", ident, err)
	}
	w.Header().Set("X-Xpdl-Generation", strconv.FormatUint(snap.Gen, 10))
	w.Header().Set("X-Xpdl-Fingerprint", snap.Fingerprint)
	return snap, nil
}

// ---- endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) (any, error) {
	return HealthResponse{
		Status:     "ok",
		Resident:   s.store.Resident(),
		Generation: s.store.Generation(),
	}, nil
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) (any, error) {
	resp := ModelsResponse{Models: []ModelInfo{}}
	for _, ident := range s.store.Resident() {
		if snap, ok := s.store.Peek(ident); ok {
			resp.Models = append(resp.Models, infoOf(snap))
		}
	}
	return resp, nil
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	return infoOf(snap), nil
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	bin := acceptsBinary(r)
	if p := snap.pre; p != nil {
		s.writePre(w, bin, &p.tree, "text/plain; charset=utf-8")
		return nil, nil
	}
	if bin {
		buf := getBuf()
		_ = WriteTree(buf, snap.Session.Root())
		s.writeRawBinary(w, frameRawTree, buf.Bytes())
		putBuf(buf)
		return nil, nil
	}
	mProtoJSON.Inc()
	s.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = WriteTree(w, snap.Session.Root())
	return nil, nil
}

func (s *Server) handleJSON(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	bin := acceptsBinary(r)
	if p := snap.pre; p != nil {
		s.writePre(w, bin, &p.export, "application/json; charset=utf-8")
		return nil, nil
	}
	if bin {
		buf := getBuf()
		_ = snap.Session.Model().WriteJSON(buf)
		s.writeRawBinary(w, frameRawJSON, buf.Bytes())
		putBuf(buf)
		return nil, nil
	}
	mProtoJSON.Inc()
	s.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = snap.Session.Model().WriteJSON(w)
	return nil, nil
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	if p := snap.pre; p != nil {
		s.writePre(w, acceptsBinary(r), &p.summary, "application/json; charset=utf-8")
		return nil, nil
	}
	return summaryOf(snap), nil
}

func (s *Server) handleElement(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	ident := r.URL.Query().Get("ident")
	if ident == "" {
		return nil, badRequest("missing ?ident= query parameter")
	}
	if pe, ok := snap.preElement(ident); ok {
		s.writePre(w, acceptsBinary(r), pe, "application/json; charset=utf-8")
		return nil, nil
	}
	e, ok := snap.Session.Find(ident)
	if !ok {
		return nil, notFound("element %q not found in model %q", ident, snap.Ident)
	}
	return elementOf(e), nil
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

func (s *Server) runSelect(acc *reqAcc, snap *Snapshot, sel string, limit int) (SelectResponse, error) {
	if err := checkSelector(sel); err != nil {
		return SelectResponse{}, err
	}
	if limit < 0 || limit > maxSelectLimit {
		return SelectResponse{}, badRequest("limit must be in [0, %d]", maxSelectLimit)
	}
	if acc != nil {
		// The plan is (or is about to be) resident in the default plan
		// cache, so digesting the selector's shape here is a cache hit,
		// not a second parse.
		if shape, hash, err := query.ShapeOf(sel); err == nil {
			acc.shape, acc.shapeHash = shape, hash
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

func (s *Server) handleSelectGet(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil {
			return nil, badRequest("limit: %v", err)
		}
	}
	resp, err := s.runSelect(accFrom(r.Context()), snap, r.URL.Query().Get("q"), limit)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (s *Server) handleSelectPost(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	var req SelectRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	resp, err := s.runSelect(accFrom(r.Context()), snap, req.Selector, req.Limit)
	if err != nil {
		return nil, err
	}
	return resp, nil
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
	v, err := expr.Eval(req.Expr, snap.Session.Env(vars))
	if err != nil {
		return EvalResponse{}, badRequest("eval: %v", err)
	}
	return evalResponseOf(v), nil
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	var req EvalRequest
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	resp, err := s.runEval(snap, req)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// handleBatch executes many select/eval operations against one
// consistent snapshot in a single round trip — the amortized client
// path (cmd/xpdlload -batch). Per-operation failures are reported
// in-band per result; the request itself fails only on malformed or
// oversized envelopes, so one bad selector cannot void its siblings.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
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
	bin := acceptsBinary(r)
	for i := range req.Ops {
		op := &req.Ops[i]
		res := &resp.Results[i]
		opStart := time.Now()
		var opAcc reqAcc
		var rows int64
		endpoint := "batch." + op.Op
		switch op.Op {
		case "select":
			sel, err := s.runSelect(&opAcc, snap, op.Selector, op.Limit)
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
			Shape:     opAcc.shape,
			ShapeHash: opAcc.shapeHash,
			Proto:     protoName(bin),
		}, qstats.Sample{
			Latency:    time.Since(opStart),
			Rows:       rows,
			Err:        res.Error != "",
			Generation: int64(snap.Gen),
			Allocs:     -1,
		})
	}
	return resp, nil
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

// findComponent locates a component by identifier in the composed
// instance tree (energy tables, interconnect channels).
func findComponent(sys *model.Component, ident string) *model.Component {
	var out *model.Component
	sys.Walk(func(c *model.Component) bool {
		if out == nil && c.Ident() == ident {
			out = c
			return false
		}
		return out == nil
	})
	return out
}

func (s *Server) handleEnergy(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	tableID := q.Get("table")
	if tableID == "" {
		return nil, badRequest("missing ?table= query parameter")
	}
	comp := findComponent(snap.System, tableID)
	if comp == nil || comp.Kind != "instructions" {
		return nil, notFound("instruction table %q not found in model %q", tableID, snap.Ident)
	}
	table, err := energy.TableFromComponent(comp)
	if err != nil {
		return nil, &apiError{status: http.StatusUnprocessableEntity,
			msg: fmt.Sprintf("table %q: %v", tableID, err)}
	}
	resp := EnergyResponse{Table: tableID}
	inst := q.Get("inst")
	if inst == "" {
		resp.Instructions = table.Names()
		resp.Unknowns = table.Unknowns()
		return resp, nil
	}
	ghzRaw := q.Get("ghz")
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
	return resp, nil
}

func (s *Server) handleTransfer(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	chID := q.Get("channel")
	if chID == "" {
		return nil, badRequest("missing ?channel= query parameter")
	}
	comp := findComponent(snap.System, chID)
	if comp == nil || (comp.Kind != "channel" && comp.Kind != "interconnect") {
		return nil, notFound("channel %q not found in model %q", chID, snap.Ident)
	}
	parseCount := func(key string, def int64) (int64, error) {
		raw := q.Get(key)
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
	return TransferResponse{
		Channel:      chID,
		BandwidthBps: tc.BandwidthBps,
		Bytes:        bytes,
		Messages:     messages,
		TimeS:        timeS,
		EnergyJ:      energyJ,
	}, nil
}

func (s *Server) handleDispatch(w http.ResponseWriter, r *http.Request) (any, error) {
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	var req DispatchRequest
	if err := decodeJSON(r, &req); err != nil {
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
	comp := &composition.Component{Name: req.Component}
	costs := map[string]float64{}
	for _, vj := range req.Variants {
		costExpr := vj.Cost
		name := vj.Name
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
	return resp, nil
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) (any, error) {
	ident := r.PathValue("model")
	if ident == "" {
		return nil, badRequest("missing model identifier")
	}
	// Drop loader caches first so the refresh observes edited files and
	// changed remote descriptors — the same sequence the background
	// revalidator runs.
	s.store.InvalidateLoader()
	res, err := s.store.RefreshDetail(r.Context(), ident)
	if err != nil {
		return nil, fmt.Errorf("refresh %q: %w", ident, err)
	}
	snap, ok := s.store.Peek(ident)
	if !ok {
		return nil, notFound("model %q is not resident", ident)
	}
	return RefreshResponse{Ident: ident, Swapped: res.Swapped, Generation: snap.Gen, Delta: res.Delta}, nil
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

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) (any, error) {
	m, err := s.jobsOr501()
	if err != nil {
		return nil, err
	}
	// Resolve the model first so bad identifiers 404 before queueing
	// (and the generation headers stamp which snapshot gated the check;
	// the sweep itself resolves fresh trees from the repository).
	snap, err := s.snapshot(w, r)
	if err != nil {
		return nil, err
	}
	var spec scenario.Spec
	if err := decodeJSON(r, &spec); err != nil {
		return nil, err
	}
	j, err := m.submit(snap.Ident, &spec)
	if err != nil {
		return nil, err
	}
	info := j.info(false)
	return SweepAccepted{Job: info.ID, Model: info.Model, State: info.State, Total: info.Total}, nil
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) (any, error) {
	m, err := s.jobsOr501()
	if err != nil {
		return nil, err
	}
	return JobsResponse{Jobs: m.list()}, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) (any, error) {
	m, err := s.jobsOr501()
	if err != nil {
		return nil, err
	}
	j, ok := m.get(r.PathValue("id"))
	if !ok {
		return nil, notFound("job %q not found", r.PathValue("id"))
	}
	withPoints := r.URL.Query().Get("points") == "1"
	return j.info(withPoints), nil
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) (any, error) {
	m, err := s.jobsOr501()
	if err != nil {
		return nil, err
	}
	info, err := m.cancelJob(r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	return info, nil
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
	if ident == "" {
		s.writeError(w, badRequest("missing model identifier"))
		return
	}
	// Ensure the model is resident (404s early for bad identifiers);
	// only the load is bounded by the request timeout, not the stream.
	loadCtx, cancel := context.WithTimeout(r.Context(), s.timeout)
	snap, err := s.store.Get(loadCtx, ident)
	cancel()
	if err != nil {
		s.writeError(w, notFound("model %q: %v", ident, err))
		return
	}
	since, err := sinceOf(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("X-Xpdl-Generation", strconv.FormatUint(snap.Gen, 10))
	w.Header().Set("X-Xpdl-Fingerprint", snap.Fingerprint)
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
