package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"xpdl/internal/obs"
	"xpdl/internal/repo"
	"xpdl/internal/rtmodel"
	"xpdl/internal/scenario"
)

// Proto selects the wire protocol a Client negotiates.
type Proto string

const (
	// ProtoJSON is the classic JSON protocol (the zero value).
	ProtoJSON Proto = "json"
	// ProtoBinary negotiates application/x-xpdl-bin answers: the same
	// data, decoded from the compact binary frames instead of JSON.
	ProtoBinary Proto = "bin"
)

// Client is a typed client for the xpdld API; xpdlquery's -remote mode
// is built on it. The zero HTTP client means a process-wide client on
// SharedTransport (not http.DefaultClient, whose 2 idle conns per host
// collapse under concurrency).
type Client struct {
	// Base is the daemon address, e.g. "http://localhost:8346".
	Base string
	// HTTP overrides the transport (tests inject httptest clients).
	HTTP *http.Client
	// Proto selects the wire protocol ("" means ProtoJSON). Results
	// are identical either way; binary trades human-readable payloads
	// for less bandwidth and per-request allocation.
	Proto Proto
	// WatchRetries bounds consecutive failed reconnect attempts in
	// Watch and JobStream before they give up: 0 means the default
	// (5), negative disables reconnecting entirely. The counter resets
	// every time a reconnected stream delivers an event.
	WatchRetries int
}

// NewClient normalizes base into a client.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

// SharedTransport is the tuned transport behind every Client whose
// HTTP field is nil. http.DefaultTransport keeps only 2 idle conns per
// host, so a 64-worker load collapses onto 2 reused connections plus
// constant dial churn; this one keeps enough idle conns for any
// realistic worker count against a handful of daemons.
var SharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   10 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	ForceAttemptHTTP2:     true,
	MaxIdleConns:          1024,
	MaxIdleConnsPerHost:   256,
	IdleConnTimeout:       90 * time.Second,
	TLSHandshakeTimeout:   10 * time.Second,
	ExpectContinueTimeout: time.Second,
}

// sharedHTTPClient carries SharedTransport and no global timeout:
// watch/job streams are long-lived by design, and request-scoped
// deadlines belong to the caller's context.
var sharedHTTPClient = &http.Client{Transport: SharedTransport}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return sharedHTTPClient
}

func (c *Client) binary() bool { return c.Proto == ProtoBinary }

// apiStatusError is a non-2xx answer from the daemon, carrying the
// decoded error envelope when there is one and the Retry-After hint on
// 503s (zero when absent) so routing layers can honor the cooldown.
type apiStatusError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *apiStatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("xpdld: %s (HTTP %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("xpdld: HTTP %d", e.Status)
}

// ContentTypeError reports a response whose Content-Type does not
// match what the client negotiated — a proxy rewriting bodies, a
// server that ignored the Accept header, or a non-xpdld endpoint. The
// body is not decoded: acting on bytes of the wrong type is how silent
// corruption starts.
type ContentTypeError struct {
	Endpoint string // request path
	Got      string // media type the response declared
	Want     string // media type the client negotiated
}

func (e *ContentTypeError) Error() string {
	return fmt.Sprintf("xpdld: %s answered Content-Type %q, want %q", e.Endpoint, e.Got, e.Want)
}

// mediaTypeOf extracts the bare media type from a Content-Type header.
func mediaTypeOf(header string) string {
	mt, _, err := mime.ParseMediaType(header)
	if err != nil {
		return strings.TrimSpace(strings.ToLower(header))
	}
	return mt
}

// do runs one request and decodes the answer into out (skipped when
// out is nil). Raw-body endpoints pass a writer via sink. The response
// Content-Type is verified against the negotiated protocol before any
// byte is interpreted.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, body, out any, sink io.Writer) error {
	u := c.Base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	bin := c.binary()
	if bin {
		req.Header.Set("Accept", ContentTypeBinary)
	} else if out != nil {
		req.Header.Set("Accept", "application/json")
	}
	// Join the caller's trace (if any) so the daemon-side span tree
	// shows the remote client as the root.
	obs.Propagate(ctx, req.Header.Set)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	ct := mediaTypeOf(resp.Header.Get("Content-Type"))
	if resp.StatusCode/100 != 2 {
		return c.statusError(resp, path, ct)
	}
	if out == nil && sink == nil {
		return nil
	}
	if bin {
		return c.decodeBinary(resp.Body, path, ct, out, sink)
	}
	if ct == ContentTypeBinary {
		// The server must never answer binary to a client that did not
		// ask for it.
		return &ContentTypeError{Endpoint: path, Got: ct, Want: "application/json"}
	}
	if sink != nil {
		_, err = io.Copy(sink, resp.Body)
		return err
	}
	if ct != "application/json" {
		return &ContentTypeError{Endpoint: path, Got: ct, Want: "application/json"}
	}
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	// Unmarshal copies everything it keeps, so the pooled buffer is
	// free for the next response the moment this returns.
	return json.Unmarshal(buf.Bytes(), out)
}

// decodeBinary reads and decodes one binary envelope. The response is
// read into a pooled buffer; decoded strings are copies (rtmodel.Dec
// contract), so recycling the buffer can never alias a result.
func (c *Client) decodeBinary(body io.Reader, path, ct string, out any, sink io.Writer) error {
	if ct != ContentTypeBinary {
		return &ContentTypeError{Endpoint: path, Got: ct, Want: ContentTypeBinary}
	}
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(body); err != nil {
		return err
	}
	t, payload, _, err := rtmodel.DecodeEnvelope(buf.Bytes())
	if err != nil {
		return fmt.Errorf("xpdld: binary response: %w", err)
	}
	if sink != nil {
		if t != frameRawTree && t != frameRawJSON {
			return fmt.Errorf("xpdld: raw endpoint answered frame type %d", t)
		}
		_, err := sink.Write(payload)
		return err
	}
	m, ok := out.(binaryMessage)
	if !ok {
		return fmt.Errorf("xpdld: no binary decoder for %T", out)
	}
	if t != m.frame() {
		return fmt.Errorf("xpdld: binary response frame type %d, want %d", t, m.frame())
	}
	return m.decodeFrom(rtmodel.NewDec(payload))
}

// statusError decodes a non-2xx answer's error envelope in whichever
// protocol the response declares.
func (c *Client) statusError(resp *http.Response, path, ct string) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var msg string
	if ct == ContentTypeBinary {
		if t, payload, _, err := rtmodel.DecodeEnvelope(data); err == nil && t == frameError {
			var envelope ErrorResponse
			if envelope.decodeFrom(rtmodel.NewDec(payload)) == nil {
				msg = envelope.Error
			}
		}
	} else {
		var envelope ErrorResponse
		_ = json.Unmarshal(data, &envelope)
		msg = envelope.Error
	}
	return &apiStatusError{Status: resp.StatusCode, Msg: msg, RetryAfter: repo.RetryAfter(resp)}
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, &out, nil)
	return out, err
}

// Models lists resident models.
func (c *Client) Models(ctx context.Context) (ModelsResponse, error) {
	var out ModelsResponse
	err := c.do(ctx, http.MethodGet, "/v1/models", nil, nil, &out, nil)
	return out, err
}

// Model fetches one model's info (loading it on first use).
func (c *Client) Model(ctx context.Context, ident string) (ModelInfo, error) {
	var out ModelInfo
	err := c.do(ctx, http.MethodGet, "/v1/models/"+url.PathEscape(ident), nil, nil, &out, nil)
	return out, err
}

// Tree streams the plain-text model tree into w — the same rendering
// as `xpdlquery tree` against a local file.
func (c *Client) Tree(ctx context.Context, ident string, w io.Writer) error {
	return c.do(ctx, http.MethodGet, "/v1/models/"+url.PathEscape(ident)+"/tree", nil, nil, nil, w)
}

// JSON streams the full model JSON export into w.
func (c *Client) JSON(ctx context.Context, ident string, w io.Writer) error {
	return c.do(ctx, http.MethodGet, "/v1/models/"+url.PathEscape(ident)+"/json", nil, nil, nil, w)
}

// Summary fetches the derived-analysis roll-up.
func (c *Client) Summary(ctx context.Context, ident string) (SummaryResponse, error) {
	var out SummaryResponse
	err := c.do(ctx, http.MethodGet, "/v1/models/"+url.PathEscape(ident)+"/summary", nil, nil, &out, nil)
	return out, err
}

// Element looks up one element by qualified name.
func (c *Client) Element(ctx context.Context, ident, elem string) (ElementJSON, error) {
	var out ElementJSON
	q := url.Values{"ident": {elem}}
	err := c.do(ctx, http.MethodGet, "/v1/models/"+url.PathEscape(ident)+"/element", q, nil, &out, nil)
	return out, err
}

// Select evaluates a path selector; limit 0 returns every match.
func (c *Client) Select(ctx context.Context, ident, selector string, limit int) (SelectResponse, error) {
	var out SelectResponse
	req := SelectRequest{Selector: selector, Limit: limit}
	err := c.do(ctx, http.MethodPost, "/v1/models/"+url.PathEscape(ident)+"/select", nil, req, &out, nil)
	return out, err
}

// Eval evaluates a constraint expression in the model environment.
func (c *Client) Eval(ctx context.Context, ident, expression string, vars map[string]any) (EvalResponse, error) {
	var out EvalResponse
	req := EvalRequest{Expr: expression, Vars: vars}
	err := c.do(ctx, http.MethodPost, "/v1/models/"+url.PathEscape(ident)+"/eval", nil, req, &out, nil)
	return out, err
}

// Batch executes many select/eval operations against one consistent
// snapshot in a single round trip. Per-operation failures come back
// in-band in the matching BatchResult.
func (c *Client) Batch(ctx context.Context, ident string, req BatchRequest) (BatchResponse, error) {
	var out BatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/models/"+url.PathEscape(ident)+"/batch", nil, req, &out, nil)
	return out, err
}

// EnergyTable lists an instruction-energy table.
func (c *Client) EnergyTable(ctx context.Context, ident, table string) (EnergyResponse, error) {
	var out EnergyResponse
	q := url.Values{"table": {table}}
	err := c.do(ctx, http.MethodGet, "/v1/models/"+url.PathEscape(ident)+"/energy", q, nil, &out, nil)
	return out, err
}

// EnergyAt interpolates one instruction's energy at a frequency.
func (c *Client) EnergyAt(ctx context.Context, ident, table, inst string, ghz float64) (EnergyResponse, error) {
	var out EnergyResponse
	q := url.Values{
		"table": {table},
		"inst":  {inst},
		"ghz":   {strconv.FormatFloat(ghz, 'g', -1, 64)},
	}
	err := c.do(ctx, http.MethodGet, "/v1/models/"+url.PathEscape(ident)+"/energy", q, nil, &out, nil)
	return out, err
}

// Transfer prices a payload over one interconnect channel.
func (c *Client) Transfer(ctx context.Context, ident, channel string, bytes, messages int64) (TransferResponse, error) {
	var out TransferResponse
	q := url.Values{
		"channel":  {channel},
		"bytes":    {strconv.FormatInt(bytes, 10)},
		"messages": {strconv.FormatInt(messages, 10)},
	}
	err := c.do(ctx, http.MethodGet, "/v1/models/"+url.PathEscape(ident)+"/transfer", q, nil, &out, nil)
	return out, err
}

// Dispatch asks the daemon which composition variant to run.
func (c *Client) Dispatch(ctx context.Context, ident string, req DispatchRequest) (DispatchResponse, error) {
	var out DispatchResponse
	err := c.do(ctx, http.MethodPost, "/v1/models/"+url.PathEscape(ident)+"/dispatch", nil, req, &out, nil)
	return out, err
}

// Refresh triggers a manual revalidation of one model.
func (c *Client) Refresh(ctx context.Context, ident string) (RefreshResponse, error) {
	var out RefreshResponse
	err := c.do(ctx, http.MethodPost, "/v1/models/"+url.PathEscape(ident)+"/refresh", nil, nil, &out, nil)
	return out, err
}

// Watch subscribes to generation-change events of one model over SSE
// and calls fn for each event (history after since is replayed first).
// It returns when ctx is canceled, the server ends the stream (drain
// or slow-consumer eviction — announced by a terminal "eof" event), or
// fn returns an error — fn's error is returned as-is, so callers can
// stop after N events with a sentinel. Cancellation mid-stream returns
// ctx.Err(), so callers can tell a deliberate stop from a server-side
// end of stream. A dropped connection is resumed as described on
// follow.
func (c *Client) Watch(ctx context.Context, ident string, since uint64, fn func(WatchEvent) error) error {
	return c.follow(ctx, "/v1/models/"+url.PathEscape(ident)+"/watch", since, true, func(data []byte) (uint64, bool, error) {
		var ev WatchEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return 0, false, fmt.Errorf("xpdld: watch event: %w", err)
		}
		return ev.Seq, false, fn(ev)
	})
}

// follow runs the SSE stream at path under the resume contract Watch
// and JobStream share. The first request asks for the events after
// since (?since=). A stream that ends WITHOUT the server's eof marker —
// the connection dropped — is reconnected with Last-Event-ID set to the
// last delivered sequence number, so no event is lost across the gap;
// so is one the server ended before a terminal event when eofEnds is
// false. WatchRetries bounds consecutive failed attempts and every
// delivered event resets the count. 4xx answers and a wrong
// Content-Type never retry: the request or the peer is wrong, and
// asking again cannot fix it. deliver decodes and hands on one event,
// returning its sequence number and whether it was the terminal event;
// its error ends follow as-is. follow returns nil after a terminal
// event, or after the server's eof when eofEnds.
func (c *Client) follow(ctx context.Context, path string, since uint64, eofEnds bool, deliver func(data []byte) (seq uint64, terminal bool, err error)) error {
	const baseBackoff = 50 * time.Millisecond
	retries := c.WatchRetries
	if retries == 0 {
		retries = 5
	}
	last := since
	attempts := 0
	for first := true; ; first = false {
		q := url.Values{}
		lastID := ""
		if first && last > 0 {
			q.Set("since", strconv.FormatUint(last, 10))
		} else if !first {
			// Reconnects resume the SSE way: Last-Event-ID carries the
			// last seen sequence number (0 replays the whole buffer).
			lastID = strconv.FormatUint(last, 10)
		}
		var cbErr error
		terminal := false
		clean, err := c.streamSSE(ctx, path, q, lastID, func(ev sseEvent) error {
			seq, term, derr := deliver(ev.Data)
			if derr != nil {
				cbErr = derr
				return derr
			}
			last, terminal = seq, term
			attempts = 0 // a live stream resets the retry budget
			return nil
		})
		switch {
		case cbErr != nil:
			return cbErr
		case terminal:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case err == nil && clean && eofEnds:
			return nil // server said eof: drain or eviction, not a drop
		}
		// The stream dropped (EOF without the marker, a read error, or a
		// transport/5xx failure). Reconnect with the last seen id unless
		// the budget is spent or the failure is non-retryable.
		var se *apiStatusError
		var cte *ContentTypeError
		if errors.As(err, &se) && se.Status < 500 || errors.As(err, &cte) {
			return err
		}
		attempts++
		if retries < 0 || attempts > retries {
			if err != nil {
				return err
			}
			return fmt.Errorf("xpdld: %s: stream dropped and reconnect budget spent", path)
		}
		backoff := baseBackoff << (attempts - 1)
		if backoff > time.Second {
			backoff = time.Second
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
	}
}

// sseEvent is one parsed server-sent event: the event type ("" when
// the server sent none), the id line verbatim, and the data payload.
type sseEvent struct {
	Type string
	ID   string
	Data []byte
}

// streamSSE runs one server-sent-events request, calling fn with each
// parsed event (heartbeat comments and the terminal eof marker are
// filtered out). It returns clean=true when the server announced the
// end of the stream with an "eof" event — anything else that stops the
// scan is a dropped connection from the caller's point of view. The
// error is ctx.Err() promptly when the context is canceled mid-stream
// (the transport closes the body, unblocking the scanner), fn's error
// as-is, and nil on end of stream.
func (c *Client) streamSSE(ctx context.Context, path string, q url.Values, lastID string, fn func(ev sseEvent) error) (clean bool, err error) {
	u := c.Base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	obs.Propagate(ctx, req.Header.Set)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	ct := mediaTypeOf(resp.Header.Get("Content-Type"))
	if resp.StatusCode/100 != 2 {
		return false, c.statusError(resp, path, ct)
	}
	if ct != "text/event-stream" {
		return false, &ContentTypeError{Endpoint: path, Got: ct, Want: "text/event-stream"}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	var ev sseEvent
	sawEOF := false
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return sawEOF, err
		}
		line := sc.Text()
		switch {
		case line == "":
			// Blank line dispatches the accumulated event.
			if ev.Type == "eof" {
				sawEOF = true
			} else if len(ev.Data) > 0 {
				if err := fn(ev); err != nil {
					return sawEOF, err
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, ":"):
			// Comment (heartbeats).
		case strings.HasPrefix(line, "event:"):
			ev.Type = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "id:"):
			ev.ID = strings.TrimSpace(line[len("id:"):])
		case strings.HasPrefix(line, "data:"):
			ev.Data = append(ev.Data, []byte(strings.TrimSpace(line[len("data:"):]))...)
		}
	}
	if err := ctx.Err(); err != nil {
		return sawEOF, err
	}
	return sawEOF, sc.Err()
}

// WatchPoll is the long-poll fallback: it returns the buffered events
// after since, waiting up to wait for the first new one. The watch
// endpoint is JSON-only (events are control-plane, not query hot path),
// so the negotiated binary protocol does not apply here.
func (c *Client) WatchPoll(ctx context.Context, ident string, since uint64, wait time.Duration) (WatchPollResponse, error) {
	var out WatchPollResponse
	// Refuse to start a long-poll hold on a context that is already
	// done; mid-hold cancellation aborts the request at the transport.
	if err := ctx.Err(); err != nil {
		return out, err
	}
	q := url.Values{}
	if since > 0 {
		q.Set("since", strconv.FormatUint(since, 10))
	}
	if wait > 0 {
		q.Set("wait", wait.String())
	}
	cj := *c
	cj.Proto = ProtoJSON
	err := cj.do(ctx, http.MethodGet, "/v1/models/"+url.PathEscape(ident)+"/watch", q, nil, &out, nil)
	return out, err
}

// QueryStats fetches the statement-statistics digest table. sortKey
// selects the ordering ("" means calls), limit > 0 truncates the row
// list, and model filters rows and slow entries to one model. The
// endpoint speaks both protocols, so a binary client pays binary
// prices here too.
func (c *Client) QueryStats(ctx context.Context, sortKey string, limit int, model string) (QueryStatsResponse, error) {
	var out QueryStatsResponse
	q := url.Values{}
	if sortKey != "" {
		q.Set("sort", sortKey)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	if model != "" {
		q.Set("model", model)
	}
	err := c.do(ctx, http.MethodGet, "/v1/stats/queries", q, nil, &out, nil)
	return out, err
}

// Sweep submits an asynchronous parameter sweep over one model and
// returns the accepted job handle. The job endpoints are JSON-only
// (control plane, not the query hot path).
func (c *Client) Sweep(ctx context.Context, ident string, spec scenario.Spec) (SweepAccepted, error) {
	var out SweepAccepted
	cj := *c
	cj.Proto = ProtoJSON
	err := cj.do(ctx, http.MethodPost, "/v1/models/"+url.PathEscape(ident)+"/sweep", nil, spec, &out, nil)
	return out, err
}

// Jobs lists the daemon's retained sweep jobs, newest first.
func (c *Client) Jobs(ctx context.Context) (JobsResponse, error) {
	var out JobsResponse
	cj := *c
	cj.Proto = ProtoJSON
	err := cj.do(ctx, http.MethodGet, "/v1/jobs", nil, nil, &out, nil)
	return out, err
}

// JobStatus polls one job. withPoints includes the full per-point
// result list (potentially large) once the job is done.
func (c *Client) JobStatus(ctx context.Context, id string, withPoints bool) (JobInfo, error) {
	var out JobInfo
	q := url.Values{}
	if withPoints {
		q.Set("points", "1")
	}
	cj := *c
	cj.Proto = ProtoJSON
	err := cj.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), q, nil, &out, nil)
	return out, err
}

// JobCancel cancels a queued or running job.
func (c *Client) JobCancel(ctx context.Context, id string) (JobInfo, error) {
	var out JobInfo
	cj := *c
	cj.Proto = ProtoJSON
	err := cj.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/cancel", nil, nil, &out, nil)
	return out, err
}

// JobStream follows one job's progress over SSE, calling fn for every
// event (history after since replays first). A stream that drops, or
// that the server ends early (slow-consumer eviction), is resumed as
// described on follow. It returns nil only once the terminal event has
// been delivered, ctx.Err() on cancellation, and fn's error as-is.
func (c *Client) JobStream(ctx context.Context, id string, since uint64, fn func(JobEvent) error) error {
	return c.follow(ctx, "/v1/jobs/"+url.PathEscape(id)+"/stream", since, false, func(data []byte) (uint64, bool, error) {
		var ev JobEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return 0, false, fmt.Errorf("xpdld: job event: %w", err)
		}
		return ev.Seq, ev.Type != "point", fn(ev)
	})
}
