package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"xpdl/internal/obs/qstats"
	"xpdl/internal/rtmodel"
)

const jsonType = "application/json; charset=utf-8"

// endpointCase is one request to an endpoint behind Server.handle and
// what its answer must carry besides the body.
type endpointCase struct {
	name           string // endpoint name: the latency histogram and qstats key
	method, target string // target may hold {job}: the last accepted sweep's ID
	body           string
	status         int
	textType       string // Content-Type of a JSON-protocol answer when not JSON
	jsonOnly       bool   // the answer has no binary form
	gen            bool   // the answer names the snapshot it came from
	preser         bool   // served from pre-serialized bytes
	unrecorded     bool   // excluded from the digest table
}

// endpointMeters are the counters every answer moves.
type endpointMeters struct {
	protoJSON, protoBin, preser int64
	status                      [6]int64 // by status class
}

func readMeters(srv *Server) endpointMeters {
	m := endpointMeters{protoJSON: mProtoJSON.Value(), protoBin: mProtoBin.Value(), preser: mPreserHits.Value()}
	for class, c := range srv.statuses {
		m.status[class] = c.Value()
	}
	return m
}

// digests returns one endpoint's digest rows for a model and
// protocol, by shape.
func digests(srv *Server, endpoint, model, proto string) map[string]qstats.Row {
	out := map[string]qstats.Row{}
	for _, r := range srv.QueryStats().Rows() {
		if r.Endpoint == endpoint && r.Model == model && r.Proto == proto {
			out[r.Shape] = r
		}
	}
	return out
}

// digestDelta compares two digests readings: the calls and response
// bytes added, and the last generation of the digest that grew.
func digestDelta(before, after map[string]qstats.Row) (calls, respBytes, lastGen int64) {
	for shape, r := range after {
		b := before[shape]
		calls += r.Calls - b.Calls
		respBytes += r.RespBytes - b.RespBytes
		if r.Calls > b.Calls {
			lastGen = r.LastGen
		}
	}
	return calls, respBytes, lastGen
}

// serveCase runs one request in-process and checks everything about
// its answer except the body's content.
func serveCase(t *testing.T, srv *Server, store *Store, c endpointCase, bin bool, target string) *httptest.ResponseRecorder {
	t.Helper()
	proto := protoName(bin)
	model := ""
	if rest, ok := strings.CutPrefix(target, "/v1/models/"); ok {
		model, _, _ = strings.Cut(rest, "/")
	}
	m0 := readMeters(srv)
	d0 := digests(srv, c.name, model, proto)

	req := httptest.NewRequest(c.method, target, strings.NewReader(c.body))
	if c.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if bin {
		req.Header.Set("Accept", ContentTypeBinary)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	resp := rec.Result()

	if resp.StatusCode != c.status {
		t.Fatalf("status %d, want %d; body %q", resp.StatusCode, c.status, rec.Body.String())
	}
	wantType := jsonType
	switch {
	case bin && !c.jsonOnly:
		wantType = ContentTypeBinary
	case c.textType != "" && resp.StatusCode == http.StatusOK:
		wantType = c.textType
	}
	if got := resp.Header.Get("Content-Type"); got != wantType {
		t.Errorf("Content-Type %q, want %q", got, wantType)
	}
	if !traceIDRe.MatchString(resp.Header.Get("X-Xpdl-Trace")) {
		t.Errorf("X-Xpdl-Trace %q", resp.Header.Get("X-Xpdl-Trace"))
	}
	gen := resp.Header.Get("X-Xpdl-Generation")
	fp := resp.Header.Get("X-Xpdl-Fingerprint")
	if c.gen {
		snap, ok := store.Peek(model)
		if !ok {
			t.Fatalf("model %q not resident", model)
		}
		if gen != strconv.FormatUint(snap.Gen, 10) || fp != snap.Fingerprint {
			t.Errorf("generation headers %q/%q, want %d/%q", gen, fp, snap.Gen, snap.Fingerprint)
		}
	} else if gen != "" || fp != "" {
		t.Errorf("unexpected generation headers %q/%q", gen, fp)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("Retry-After %q on an answer that was not shed", ra)
	}

	m1 := readMeters(srv)
	wantJSON, wantBin := int64(1), int64(0)
	if bin && !c.jsonOnly {
		wantJSON, wantBin = 0, 1
	}
	if d := m1.protoJSON - m0.protoJSON; d != wantJSON {
		t.Errorf("xpdl_serve_proto_total{proto=json} moved %d, want %d", d, wantJSON)
	}
	if d := m1.protoBin - m0.protoBin; d != wantBin {
		t.Errorf("xpdl_serve_proto_total{proto=bin} moved %d, want %d", d, wantBin)
	}
	wantPre := int64(0)
	if c.preser {
		wantPre = 1
	}
	if d := m1.preser - m0.preser; d != wantPre {
		t.Errorf("xpdl_serve_preser_hits_total moved %d, want %d", d, wantPre)
	}
	for class := 2; class <= 5; class++ {
		want := int64(0)
		if class == c.status/100 {
			want = 1
		}
		if d := m1.status[class] - m0.status[class]; d != want {
			t.Errorf("xpdld_responses_%dxx_total moved %d, want %d", class, d, want)
		}
	}

	calls, respBytes, lastGen := digestDelta(d0, digests(srv, c.name, model, proto))
	wantCalls := int64(1)
	if c.unrecorded {
		wantCalls = 0
	}
	if calls != wantCalls {
		t.Fatalf("digest calls moved %d, want %d", calls, wantCalls)
	}
	if !c.unrecorded {
		if respBytes != int64(rec.Body.Len()) {
			t.Errorf("digest RespBytes moved %d, body is %d bytes", respBytes, rec.Body.Len())
		}
		wantGen := int64(0)
		if c.gen {
			wantGen, _ = strconv.ParseInt(gen, 10, 64)
		}
		if lastGen != wantGen {
			t.Errorf("digest generation %d, want %d", lastGen, wantGen)
		}
	}
	return rec
}

// TestEndpointAnswers drives every endpoint behind Server.handle in
// both protocols, answers and errors alike, and checks the status,
// Content-Type, trace and generation headers, the protocol,
// pre-serialization and status-class counters, and the digest row:
// one call whose response bytes equal the body and whose generation
// is the snapshot's that answered.
func TestEndpointAnswers(t *testing.T) {
	srv, store := newModelServer(t, Config{AllowRefresh: true})
	defer srv.Close()
	// The job IDs appear in the subtest names; a fixed tag in place of
	// the random one keeps those names the same from run to run.
	srv.jobs.tag = "1d6db9c1"
	const m = "liu_gpu_server"
	if _, err := store.Get(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	sweep, err := json.Marshal(liuSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	base := "/v1/models/" + m
	cases := []endpointCase{
		{name: "healthz", method: "GET", target: "/healthz", status: 200, unrecorded: true},
		{name: "models", method: "GET", target: "/v1/models", status: 200},
		{name: "model", method: "GET", target: base, status: 200, gen: true},
		{name: "model", method: "GET", target: "/v1/models/no_such_model", status: 404},
		{name: "tree", method: "GET", target: base + "/tree", status: 200, gen: true, preser: true,
			textType: "text/plain; charset=utf-8"},
		{name: "json", method: "GET", target: base + "/json", status: 200, gen: true, preser: true},
		{name: "summary", method: "GET", target: base + "/summary", status: 200, gen: true, preser: true},
		{name: "element", method: "GET", target: base + "/element?ident=gpu1", status: 200, gen: true, preser: true},
		{name: "element", method: "GET", target: base + "/element?ident=nope", status: 404, gen: true},
		{name: "element", method: "GET", target: base + "/element", status: 400, gen: true},
		{name: "select", method: "GET", target: base + "/select?q=%2F%2Fdevice", status: 200, gen: true},
		{name: "select", method: "GET", target: base + "/select?q=%2F%2Fcore%5B", status: 400, gen: true},
		{name: "select", method: "POST", target: base + "/select", body: `{"selector": "//core", "limit": 3}`,
			status: 200, gen: true},
		{name: "eval", method: "POST", target: base + "/eval", body: `{"expr": "num_cores() >= 4"}`,
			status: 200, gen: true},
		{name: "eval", method: "POST", target: base + "/eval", body: `{"expr": `, status: 400, gen: true},
		{name: "batch", method: "POST", target: base + "/batch",
			body:   `{"ops": [{"op": "select", "selector": "//cpu"}, {"op": "eval", "expr": "num_cores()"}]}`,
			status: 200, gen: true},
		{name: "energy", method: "GET", target: base + "/energy?table=e5_isa&inst=divsd&ghz=3", status: 200, gen: true},
		{name: "energy", method: "GET", target: base + "/energy?table=nope", status: 404, gen: true},
		{name: "transfer", method: "GET", target: base + "/transfer?channel=up_link&bytes=1048576", status: 200, gen: true},
		{name: "dispatch", method: "POST", target: base + "/dispatch", body: `{"component": "spmv", "variants": [
			{"name": "cpu", "selectable": "num_cores() >= 1", "cost": "10"}]}`, status: 200, gen: true},
		{name: "dispatch", method: "POST", target: base + "/dispatch", body: `{"component": "spmv", "variants": [
			{"name": "fpga", "selectable": "has_kind('fpga')"}]}`, status: 422, gen: true},
		{name: "refresh", method: "POST", target: base + "/refresh", status: 200},
		{name: "sweep", method: "POST", target: base + "/sweep", body: string(sweep), status: 200, gen: true, jsonOnly: true},
		{name: "stats", method: "GET", target: "/v1/stats/queries?limit=2", status: 200, unrecorded: true},
		{name: "stats", method: "GET", target: "/v1/stats/queries?sort=nope", status: 400, unrecorded: true},
		{name: "jobs", method: "GET", target: "/v1/jobs", status: 200, jsonOnly: true},
		{name: "job", method: "GET", target: "/v1/jobs/{job}", status: 200, jsonOnly: true},
		{name: "job", method: "GET", target: "/v1/jobs/no-such-job", status: 404},
		{name: "jobcancel", method: "POST", target: "/v1/jobs/{job}/cancel", status: 200, jsonOnly: true},
	}
	for _, bin := range []bool{false, true} {
		job := ""
		for _, c := range cases {
			target := strings.ReplaceAll(c.target, "{job}", job)
			t.Run(protoName(bin)+" "+c.method+" "+target, func(t *testing.T) {
				rec := serveCase(t, srv, store, c, bin, target)
				if c.name == "sweep" {
					var acc SweepAccepted
					if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil || acc.Job == "" {
						t.Fatalf("sweep answer %q: %v", rec.Body.String(), err)
					}
					job = acc.Job
				}
			})
		}
	}
}

// TestShedAnswer checks the answer of a request the concurrency
// limiter sheds, in both protocols: 503 with Retry-After, the error in
// the negotiated protocol, the counters, and a digest row whose
// response bytes equal the body.
func TestShedAnswer(t *testing.T) {
	srv, _ := newModelServer(t, Config{MaxInFlight: 1, RequestTimeout: 20 * time.Millisecond})
	srv.sem <- struct{}{} // the only slot stays taken
	defer func() { <-srv.sem }()
	const target = "/v1/models/liu_gpu_server/summary"
	for _, bin := range []bool{false, true} {
		t.Run(protoName(bin), func(t *testing.T) {
			m0 := readMeters(srv)
			d0 := digests(srv, "summary", "liu_gpu_server", protoName(bin))
			req := httptest.NewRequest(http.MethodGet, target, nil)
			wantType := jsonType
			if bin {
				req.Header.Set("Accept", ContentTypeBinary)
				wantType = ContentTypeBinary
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			resp := rec.Result()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503", resp.StatusCode)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Errorf("Retry-After %q, want 1", ra)
			}
			if got := resp.Header.Get("Content-Type"); got != wantType {
				t.Errorf("Content-Type %q, want %q", got, wantType)
			}
			if !traceIDRe.MatchString(resp.Header.Get("X-Xpdl-Trace")) {
				t.Errorf("X-Xpdl-Trace %q", resp.Header.Get("X-Xpdl-Trace"))
			}
			if g := resp.Header.Get("X-Xpdl-Generation"); g != "" {
				t.Errorf("shed answer names generation %q", g)
			}
			var er ErrorResponse
			var err error
			if bin {
				var payload []byte
				if _, payload, _, err = rtmodel.DecodeEnvelope(rec.Body.Bytes()); err == nil {
					err = decodeWire(&er, payload)
				}
			} else {
				err = json.Unmarshal(rec.Body.Bytes(), &er)
			}
			if err != nil || er.Error != "server saturated; retry later" {
				t.Errorf("error answer %+v: %v", er, err)
			}
			m1 := readMeters(srv)
			if bin && (m1.protoBin-m0.protoBin != 1 || m1.protoJSON != m0.protoJSON) ||
				!bin && (m1.protoJSON-m0.protoJSON != 1 || m1.protoBin != m0.protoBin) {
				t.Errorf("proto counters moved json %d bin %d", m1.protoJSON-m0.protoJSON, m1.protoBin-m0.protoBin)
			}
			if m1.preser != m0.preser || m1.status[5]-m0.status[5] != 1 || m1.status[2] != m0.status[2] {
				t.Errorf("counters moved: preser %d, 5xx %d, 2xx %d",
					m1.preser-m0.preser, m1.status[5]-m0.status[5], m1.status[2]-m0.status[2])
			}
			calls, respBytes, _ := digestDelta(d0, digests(srv, "summary", "liu_gpu_server", protoName(bin)))
			if calls != 1 || respBytes != int64(rec.Body.Len()) {
				t.Errorf("digest moved %d calls, %d bytes; body is %d bytes", calls, respBytes, rec.Body.Len())
			}
		})
	}
}

// blockingLoader is a Loader whose loads end only with their context.
type blockingLoader struct{}

func (blockingLoader) Load(ctx context.Context, _ string) (*Snapshot, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func (blockingLoader) Invalidate() {}

// TestWatchLoadTimeout checks that /watch answers a model load that
// runs out of time as the wrapped endpoints do: 503 "request timed
// out", not 404.
func TestWatchLoadTimeout(t *testing.T) {
	srv := NewServer(Config{Store: NewStore(blockingLoader{}, 0), RequestTimeout: 20 * time.Millisecond})
	defer srv.Close()
	for _, target := range []string{"/v1/models/m/summary", "/v1/models/m/watch?since=0"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if rec.Code != http.StatusServiceUnavailable || er.Error != "request timed out" {
			t.Errorf("%s: %d %q, want 503 \"request timed out\"", target, rec.Code, er.Error)
		}
	}
}
