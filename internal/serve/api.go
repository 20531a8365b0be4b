package serve

import (
	"fmt"
	"io"
	"time"

	"xpdl/internal/expr"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// Wire types of the xpdld JSON API. The same structs are used by the
// server handlers and the Go client, so the two cannot drift.

// ModelInfo describes one resident model.
type ModelInfo struct {
	Ident       string    `json:"ident"`
	Generation  uint64    `json:"generation"`
	Fingerprint string    `json:"fingerprint"`
	LoadedAt    time.Time `json:"loadedAt"`
	Nodes       int       `json:"nodes"`
}

// ModelsResponse lists resident models.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// HealthResponse is /healthz.
type HealthResponse struct {
	Status     string   `json:"status"`
	Resident   []string `json:"resident"`
	Generation uint64   `json:"generation"`
}

// AttrJSON is one attribute of an element: the raw source text plus
// the normalized value when the toolchain derived one. Display is the
// human rendering ("16 GB") that command-line clients print.
type AttrJSON struct {
	Raw     string   `json:"raw,omitempty"`
	Value   *float64 `json:"value,omitempty"`
	Unit    string   `json:"unit,omitempty"`
	Display string   `json:"display,omitempty"`
	Unknown bool     `json:"unknown,omitempty"`
}

// ElementJSON is the lookup answer for one model element.
type ElementJSON struct {
	Kind     string              `json:"kind"`
	ID       string              `json:"id,omitempty"`
	Name     string              `json:"name,omitempty"`
	Type     string              `json:"type,omitempty"`
	Path     string              `json:"path"`
	Attrs    map[string]AttrJSON `json:"attrs,omitempty"`
	Children []ElementRef        `json:"children,omitempty"`
}

// ElementRef is a compact reference to an element (selector results,
// child listings).
type ElementRef struct {
	Kind  string `json:"kind"`
	Ident string `json:"ident,omitempty"`
	Path  string `json:"path"`
}

// SelectRequest is the POST body of /select (GET uses ?q=).
type SelectRequest struct {
	Selector string `json:"selector"`
	Limit    int    `json:"limit,omitempty"`
}

// SelectResponse lists the elements a selector matched.
type SelectResponse struct {
	Count    int          `json:"count"`
	Elements []ElementRef `json:"elements"`
}

// EvalRequest evaluates a constraint expression against the model env.
type EvalRequest struct {
	Expr string         `json:"expr"`
	Vars map[string]any `json:"vars,omitempty"`
}

// EvalResponse carries the typed result plus its Go literal rendering.
type EvalResponse struct {
	Kind string  `json:"kind"`
	Num  float64 `json:"num,omitempty"`
	Bool bool    `json:"bool,omitempty"`
	Str  string  `json:"str,omitempty"`
	Text string  `json:"text"`
}

// BatchOp is one operation inside a /batch request: a selector
// evaluation (op "select", using Selector/Limit) or an expression
// evaluation (op "eval", using Expr/Vars).
type BatchOp struct {
	Op       string         `json:"op"`
	Selector string         `json:"selector,omitempty"`
	Limit    int            `json:"limit,omitempty"`
	Expr     string         `json:"expr,omitempty"`
	Vars     map[string]any `json:"vars,omitempty"`
}

// BatchRequest executes many select/eval operations against one
// consistent snapshot in a single round trip.
type BatchRequest struct {
	Ops []BatchOp `json:"ops"`
}

// BatchResult answers one BatchOp: exactly one of Select, Eval or
// Error is populated.
type BatchResult struct {
	Select *SelectResponse `json:"select,omitempty"`
	Eval   *EvalResponse   `json:"eval,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// BatchResponse carries one result per requested operation, in order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// SummaryResponse is the derived-analysis roll-up of one model.
type SummaryResponse struct {
	Cores        int      `json:"cores"`
	CUDADevices  int      `json:"cudaDevices"`
	StaticPowerW float64  `json:"staticPowerW"`
	Installed    []string `json:"installed"`
}

// EnergyResponse answers energy-table queries. Without inst= it lists
// the table; with inst= and ghz= it carries the interpolated energy.
type EnergyResponse struct {
	Table        string   `json:"table"`
	Instructions []string `json:"instructions,omitempty"`
	Unknowns     []string `json:"unknowns,omitempty"`
	Inst         string   `json:"inst,omitempty"`
	GHz          float64  `json:"ghz,omitempty"`
	EnergyJ      *float64 `json:"energyJ,omitempty"`
}

// TransferResponse answers transfer-cost queries over one channel.
type TransferResponse struct {
	Channel      string  `json:"channel"`
	BandwidthBps float64 `json:"bandwidthBps"`
	Bytes        int64   `json:"bytes"`
	Messages     int64   `json:"messages"`
	TimeS        float64 `json:"timeS"`
	EnergyJ      float64 `json:"energyJ"`
}

// VariantJSON is one implementation variant for remote dispatch: the
// selectability constraint and the cost predictor are both expression
// strings evaluated in the platform env.
type VariantJSON struct {
	Name       string `json:"name"`
	Selectable string `json:"selectable,omitempty"`
	Cost       string `json:"cost,omitempty"`
}

// DispatchRequest asks the daemon which variant to run.
type DispatchRequest struct {
	Component string         `json:"component,omitempty"`
	Variants  []VariantJSON  `json:"variants"`
	Vars      map[string]any `json:"vars,omitempty"`
}

// DispatchResponse names the selectable variants and the chosen one.
type DispatchResponse struct {
	Selectable []string           `json:"selectable"`
	Chosen     string             `json:"chosen"`
	Costs      map[string]float64 `json:"costs,omitempty"`
	Warning    string             `json:"warning,omitempty"`
}

// RefreshResponse reports a manual revalidation of one model.
type RefreshResponse struct {
	Ident      string `json:"ident"`
	Swapped    bool   `json:"swapped"`
	Generation uint64 `json:"generation"`
	// Delta reports that the swap was applied as an in-place patch
	// instead of a full resolve.
	Delta bool `json:"delta,omitempty"`
}

// WatchEvent is one generation change streamed by
// GET /v1/models/{model}/watch: a new snapshot generation became
// current (via delta patch or full resolve). Seq is a per-model
// sequence number — gap-free and strictly increasing — so consumers can
// detect missed events and resume with ?since=.
type WatchEvent struct {
	Model       string   `json:"model"`
	Seq         uint64   `json:"seq"`
	Generation  uint64   `json:"generation"`
	Fingerprint string   `json:"fingerprint"`
	Delta       bool     `json:"delta,omitempty"`
	Changed     []string `json:"changed,omitempty"`
	UnixNano    int64    `json:"unixNano,omitempty"`
}

// WatchPollResponse is the long-poll fallback answer: the buffered
// events after ?since=, and the sequence number to resume from.
type WatchPollResponse struct {
	Model  string       `json:"model"`
	Events []WatchEvent `json:"events"`
	Next   uint64       `json:"next"`
}

// QueryStatRow is one digest's aggregated statistics: a query class
// (endpoint + model + literal-stripped plan shape + wire proto) with
// its cumulative cost. Latencies are seconds; BucketCounts are the
// non-cumulative per-bucket observation counts over the response's
// shared BucketBounds (+Inf bucket last), so clients can compute
// windowed quantiles from deltas between polls.
type QueryStatRow struct {
	Endpoint     string    `json:"endpoint"`
	Model        string    `json:"model,omitempty"`
	Shape        string    `json:"shape,omitempty"`
	Proto        string    `json:"proto"`
	Calls        int64     `json:"calls"`
	Errors       int64     `json:"errors,omitempty"`
	Rows         int64     `json:"rows,omitempty"`
	ReqBytes     int64     `json:"reqBytes,omitempty"`
	RespBytes    int64     `json:"respBytes,omitempty"`
	LatencySumS  float64   `json:"latencySumS"`
	P50S         float64   `json:"p50S"`
	P99S         float64   `json:"p99S"`
	BucketCounts []int64   `json:"bucketCounts"`
	AllocSamples int64     `json:"allocSamples,omitempty"`
	AllocObjects int64     `json:"allocObjects,omitempty"`
	LastGen      int64     `json:"lastGeneration,omitempty"`
	FirstSeen    time.Time `json:"firstSeen"`
	LastSeen     time.Time `json:"lastSeen"`
}

// SlowQueryJSON is one retained slow request; TraceID cross-links to
// /debug/traces/{id} when the trace was recorded there.
type SlowQueryJSON struct {
	LatencyMS float64   `json:"latencyMs"`
	Endpoint  string    `json:"endpoint"`
	Model     string    `json:"model,omitempty"`
	Shape     string    `json:"shape,omitempty"`
	Proto     string    `json:"proto"`
	TraceID   string    `json:"traceId,omitempty"`
	Error     bool      `json:"error,omitempty"`
	At        time.Time `json:"at"`
}

// QueryStatsResponse is GET /v1/stats/queries: the digest table
// (sorted/limited/filtered per query parameters) plus the slow-query
// ring. Stats survive hot swaps; LastGen on each row names the model
// generation that answered most recently.
type QueryStatsResponse struct {
	BucketBounds []float64       `json:"bucketBounds"`
	Digests      int             `json:"digests"`
	Recorded     int64           `json:"recorded"`
	Evicted      int64           `json:"evicted"`
	Rows         []QueryStatRow  `json:"rows"`
	Slow         []SlowQueryJSON `json:"slow"`
}

// ErrorResponse is the JSON error envelope (4xx/5xx).
type ErrorResponse struct {
	Error string `json:"error"`
}

// TraceSummary is one line of the /debug/traces listing: enough to
// decide whether the full span tree is worth fetching.
type TraceSummary struct {
	TraceID    string    `json:"traceId"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"durationMs"`
	Status     int       `json:"status"`
	Error      string    `json:"error,omitempty"`
	Sampled    bool      `json:"sampled"`
	Spans      int       `json:"spans"`
}

// TraceListResponse is GET /debug/traces.
type TraceListResponse struct {
	Retained int            `json:"retained"`
	Capacity int            `json:"capacity"`
	Traces   []TraceSummary `json:"traces"`
}

// infoOf projects a snapshot into its wire description.
func infoOf(s *Snapshot) ModelInfo {
	return ModelInfo{
		Ident:       s.Ident,
		Generation:  s.Gen,
		Fingerprint: s.Fingerprint,
		LoadedAt:    s.LoadedAt,
		Nodes:       s.Nodes(),
	}
}

// refOf projects a query cursor into a compact reference.
func refOf(e query.Elem) ElementRef {
	return ElementRef{Kind: e.Kind(), Ident: e.Ident(), Path: e.Path()}
}

// elementOf projects a query cursor with its attributes and children.
func elementOf(e query.Elem) ElementJSON {
	out := ElementJSON{
		Kind: e.Kind(),
		ID:   e.ID(),
		Name: e.Name(),
		Type: e.TypeName(),
		Path: e.Path(),
	}
	if attrs := e.Attrs(); len(attrs) > 0 {
		out.Attrs = make(map[string]AttrJSON, len(attrs))
		for _, a := range attrs {
			out.Attrs[a.Name] = attrOf(a)
		}
	}
	for i := range e.NumChildren() {
		out.Children = append(out.Children, refOf(e.Child(i)))
	}
	return out
}

func attrOf(a rtmodel.Attr) AttrJSON {
	aj := AttrJSON{Raw: a.Raw}
	if a.Flags&rtmodel.FlagUnknown != 0 {
		aj.Unknown = true
		return aj
	}
	if a.HasValue() {
		v := a.Value
		aj.Value = &v
		q := units.Quantity{Value: a.Value, Dim: a.Dim}
		aj.Display = q.String()
		if a.Dim != units.Dimensionless {
			aj.Unit = a.Dim.BaseUnit()
		}
	}
	return aj
}

// toExprVars converts decoded JSON vars into expression values;
// unsupported types are rejected so malformed requests fail as 4xx.
func toExprVars(vars map[string]any) (map[string]expr.Value, error) {
	if len(vars) == 0 {
		return nil, nil
	}
	out := make(map[string]expr.Value, len(vars))
	for k, v := range vars {
		switch t := v.(type) {
		case float64:
			out[k] = expr.Number(t)
		case bool:
			out[k] = expr.Bool(t)
		case string:
			out[k] = expr.String(t)
		default:
			return nil, fmt.Errorf("var %q: unsupported type %T (want number, bool or string)", k, v)
		}
	}
	return out, nil
}

// WriteTree renders the model tree in the exact format of `xpdlquery
// tree`, so the local and remote command paths print identical output.
func WriteTree(w io.Writer, root query.Elem) error {
	var line []byte // reused for every line, so the render allocates nothing per element
	var walk func(e query.Elem, depth int) error
	walk = func(e query.Elem, depth int) error {
		if !e.Valid() {
			return nil
		}
		line = line[:0]
		for range depth {
			line = append(line, "  "...)
		}
		line = append(line, e.Kind()...)
		if id := e.Ident(); id != "" {
			line = append(append(line, ' '), id...)
		}
		if t := e.TypeName(); t != "" {
			line = append(append(line, " : "...), t...)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
		for i := range e.NumChildren() {
			if err := walk(e.Child(i), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(root, 0)
}
