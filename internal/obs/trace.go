package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync/atomic"
	"time"
)

// This file adds request-scoped distributed tracing on top of the
// phase spans: 128-bit trace IDs with W3C traceparent-style wire
// encoding, a probabilistic sampler, the Trace type tying a span tree
// to a trace ID, and context.Context plumbing so every layer of the
// serving path (HTTP handler → snapshot store → toolchain → repo
// fetch) attaches child spans to whatever trace its request carries.

// TraceparentHeader is the HTTP header carrying the trace context
// across process boundaries (W3C Trace Context).
const TraceparentHeader = "traceparent"

// TraceID is a 128-bit trace identifier; the all-zero value is invalid.
type TraceID [16]byte

// SpanID is a 64-bit span identifier; the all-zero value is invalid.
type SpanID [8]byte

// String renders the ID as 32 lowercase hex digits. It encodes into a
// stack array, so the returned string is its one allocation; every
// served request renders its trace ID.
func (t TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], t[:])
	return string(b[:])
}

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 16 lowercase hex digits, in one allocation
// like TraceID.String.
func (s SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], s[:])
	return string(b[:])
}

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// idCounter seeds the fallback ID generator when crypto/rand fails
// (it practically never does; the fallback keeps IDs unique, not
// unpredictable).
var idCounter atomic.Uint64

func randomBytes(b []byte) {
	if _, err := crand.Read(b); err != nil {
		for i := 0; i < len(b); i += 8 {
			var chunk [8]byte
			binary.LittleEndian.PutUint64(chunk[:], splitmix64(idCounter.Add(1)))
			copy(b[i:], chunk[:])
		}
	}
}

// NewTraceID returns a fresh random trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		randomBytes(t[:])
	}
	return t
}

// NewSpanID returns a fresh random span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		randomBytes(s[:])
	}
	return s
}

// TraceContext is the propagated identity of one trace: which trace a
// request belongs to, the caller's span within it, and whether the
// caller asked for the trace to be recorded.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether both IDs are non-zero.
func (tc TraceContext) Valid() bool { return !tc.TraceID.IsZero() && !tc.SpanID.IsZero() }

// Traceparent encodes the context in the W3C wire form
// "00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>".
func (tc TraceContext) Traceparent() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID.String() + "-" + tc.SpanID.String() + "-" + flags
}

var errTraceparent = errors.New("obs: malformed traceparent")

// ParseTraceparent decodes a traceparent header. It accepts any
// version except the reserved "ff", requires lowercase hex per the
// spec, and rejects all-zero trace or span IDs. A future version with
// trailing fields is accepted as long as the leading four fields
// parse (the spec's forward-compatibility rule).
func ParseTraceparent(s string) (TraceContext, error) {
	// "vv-<32>-<16>-<ff>" = 55 bytes minimum.
	if len(s) < 55 {
		return TraceContext{}, errTraceparent
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, errTraceparent
	}
	version := s[0:2]
	if !isLowerHex(version) || version == "ff" {
		return TraceContext{}, errTraceparent
	}
	if version == "00" && len(s) != 55 {
		return TraceContext{}, errTraceparent
	}
	if len(s) > 55 && s[55] != '-' {
		return TraceContext{}, errTraceparent
	}
	var tc TraceContext
	if !isLowerHex(s[3:35]) || !isLowerHex(s[36:52]) || !isLowerHex(s[53:55]) {
		return TraceContext{}, errTraceparent
	}
	hex.Decode(tc.TraceID[:], []byte(s[3:35]))
	hex.Decode(tc.SpanID[:], []byte(s[36:52]))
	var flags [1]byte
	hex.Decode(flags[:], []byte(s[53:55]))
	tc.Sampled = flags[0]&1 == 1
	if !tc.Valid() {
		return TraceContext{}, errTraceparent
	}
	return tc, nil
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}

// Sampler makes the head-based sampling decision for locally started
// traces. It is probabilistic (rate in [0,1]) and lock-free: the
// decision hashes an atomic counter, so it is deterministic for a
// given sampler and spreads sampled requests evenly instead of in
// random bursts. Error responses are retained regardless of the
// sampling decision by the recording side (see TraceBuffer users),
// which is what "probabilistic + always-on-error" means here.
type Sampler struct {
	threshold uint64 // sample when hash < threshold
	n         atomic.Uint64
}

// NewSampler builds a sampler that records approximately rate of the
// traces it is asked about. Rates outside [0,1] are clamped.
func NewSampler(rate float64) *Sampler {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s := &Sampler{}
	if rate == 1 {
		s.threshold = ^uint64(0)
	} else {
		s.threshold = uint64(rate * float64(1<<63) * 2)
	}
	return s
}

// Sample returns the decision for the next trace. Nil-safe (false).
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	if s.threshold == ^uint64(0) {
		return true
	}
	return splitmix64(s.n.Add(1)) < s.threshold
}

// Rate returns the configured sampling rate.
func (s *Sampler) Rate() float64 {
	if s == nil {
		return 0
	}
	if s.threshold == ^uint64(0) {
		return 1
	}
	return float64(s.threshold) / (float64(1<<63) * 2)
}

// splitmix64 is the SplitMix64 mixing function — a cheap, well
// distributed hash of the sequence counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Trace ties one span tree to a trace context for the duration of a
// request. The root of the tree is the local handler span; when the
// context arrived over the wire, a wrapper span named "client"
// represents the remote caller so the exported tree shows the full
// causality client → handler → … in one artifact.
type Trace struct {
	tc     TraceContext
	parent SpanID // caller's span ID when the context came off the wire
	root   *Span  // "client" wrapper (remote) or the handler span (local)
	active *Span  // the handler span new children attach under
	start  time.Time
}

// StartTrace begins a trace whose handler span is named name. A
// non-zero parentSpan marks tc as having been extracted from an
// incoming traceparent header; tc.SpanID must then already be the
// fresh local span ID chosen for this process. Spans are light (no
// memstats) so tracing stays cheap on the request hot path.
func StartTrace(name string, tc TraceContext, parentSpan SpanID) *Trace {
	t := &Trace{tc: tc, parent: parentSpan, start: time.Now()}
	if !parentSpan.IsZero() {
		t.root = NewLightSpan("client")
		t.root.SetAttr("span_id", parentSpan.String())
		t.active = t.root.Start(name)
	} else {
		t.root = NewLightSpan(name)
		t.active = t.root
	}
	return t
}

// Context returns the propagated trace identity. Nil-safe.
func (t *Trace) Context() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	return t.tc
}

// Sampled reports whether the trace should be recorded on success
// paths. Nil-safe.
func (t *Trace) Sampled() bool { return t != nil && t.tc.Sampled }

// Span returns the handler span (the attachment point for request
// work). Nil-safe.
func (t *Trace) Span() *Span {
	if t == nil {
		return nil
	}
	return t.active
}

// Finish stops the trace's spans and captures it as an immutable
// record. Nil-safe (zero record).
func (t *Trace) Finish(status int, errMsg string) TraceRecord {
	if t == nil {
		return TraceRecord{}
	}
	t.active.Stop()
	t.root.Stop()
	return TraceRecord{
		TraceID:      t.tc.TraceID.String(),
		SpanID:       t.tc.SpanID.String(),
		ParentSpanID: spanIDOrEmpty(t.parent),
		Name:         t.active.Name(),
		Start:        t.start,
		DurationNS:   t.root.Duration().Nanoseconds(),
		Status:       status,
		Error:        errMsg,
		Sampled:      t.tc.Sampled,
		Root:         t.root.Snapshot(),
	}
}

func spanIDOrEmpty(s SpanID) string {
	if s.IsZero() {
		return ""
	}
	return s.String()
}

// TraceRecord is one completed trace: identity, outcome and the full
// span tree, ready for JSON export from /debug/traces.
type TraceRecord struct {
	TraceID      string       `json:"trace_id"`
	SpanID       string       `json:"span_id"`
	ParentSpanID string       `json:"parent_span_id,omitempty"`
	Name         string       `json:"name"`
	Start        time.Time    `json:"start"`
	DurationNS   int64        `json:"duration_ns"`
	Status       int          `json:"status,omitempty"`
	Error        string       `json:"error,omitempty"`
	Sampled      bool         `json:"sampled"`
	Root         SpanSnapshot `json:"root"`
}

// ---- context plumbing ----

type traceCtxKey struct{}
type spanCtxKey struct{}

// ContextWithTrace returns ctx carrying the trace; the trace's handler
// span becomes the active span for StartSpan/SpanFromContext.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, traceCtxKey{}, t)
	return context.WithValue(ctx, spanCtxKey{}, t.active)
}

// TraceFromContext returns the trace carried by ctx (nil if none).
func TraceFromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// TraceIDFromContext returns the active trace ID as a string, "" when
// the context carries no trace — the hook structured logs use to stamp
// records.
func TraceIDFromContext(ctx context.Context) string {
	if t := TraceFromContext(ctx); t != nil {
		return t.tc.TraceID.String()
	}
	return ""
}

// ContextWithSpan returns ctx with sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span (nil if none — and all Span
// methods are nil-safe, so callers never check).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpan starts a child of the context's active span and returns a
// derived context in which that child is active. When the context
// carries no span the original context and a nil span are returned, so
// untraced paths cost two pointer lookups and nothing else.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Start(name)
	return ContextWithSpan(ctx, sp), sp
}

// Propagate stamps the context's trace onto an outbound header map
// (an http.Header), so cross-process calls join the same trace.
func Propagate(ctx context.Context, set func(key, value string)) {
	if t := TraceFromContext(ctx); t != nil && t.tc.Valid() {
		set(TraceparentHeader, t.tc.Traceparent())
	}
}
