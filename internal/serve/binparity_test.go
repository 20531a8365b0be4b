package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"xpdl/internal/rtmodel"
)

// Differential JSON ≡ binary parity suite: every endpoint is asked the
// same question twice — once classic, once with the binary protocol
// negotiated — over the full models/ corpus. The binary response must
// decode into a struct whose canonical JSON rendering is byte-identical
// to the classic answer (typed endpoints), or carry the classic body
// verbatim as its payload (raw endpoints). Error answers must agree in
// status and message. Nothing about the JSON side may change: it is
// the compatibility baseline existing clients depend on.

// doProto issues one request against the server, optionally
// negotiating the binary protocol.
func doProto(t testing.TB, srv *Server, method, target string, body []byte, bin bool) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if bin {
		req.Header.Set("Accept", ContentTypeBinary)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// assertParity runs one request in both protocols and checks the
// answers agree completely. For 2xx answers the binary payload is
// decoded into out and re-rendered as canonical JSON, which must be
// byte-identical to the classic body; for errors, status and message
// must match.
func assertParity(t *testing.T, srv *Server, method, target string, body []byte, out binaryMessage) {
	t.Helper()
	js := doProto(t, srv, method, target, body, false)
	bn := doProto(t, srv, method, target, body, true)
	if js.Code != bn.Code {
		t.Fatalf("%s %s: JSON status %d, binary status %d", method, target, js.Code, bn.Code)
	}
	if got := mediaTypeOf(bn.Header().Get("Content-Type")); got != ContentTypeBinary {
		t.Fatalf("%s %s: binary response Content-Type %q", method, target, got)
	}
	ft, payload, rest, err := rtmodel.DecodeEnvelope(bn.Body.Bytes())
	if err != nil {
		t.Fatalf("%s %s: binary envelope: %v", method, target, err)
	}
	if len(rest) != 0 {
		t.Fatalf("%s %s: %d trailing bytes after the envelope", method, target, len(rest))
	}
	if js.Code/100 != 2 {
		if ft != frameError {
			t.Fatalf("%s %s: error answered frame type %d", method, target, ft)
		}
		var bErr ErrorResponse
		if err := decodeWire(&bErr, payload); err != nil {
			t.Fatalf("%s %s: decoding error frame: %v", method, target, err)
		}
		var jErr ErrorResponse
		if err := json.Unmarshal(js.Body.Bytes(), &jErr); err != nil {
			t.Fatalf("%s %s: decoding JSON error envelope: %v", method, target, err)
		}
		if bErr != jErr {
			t.Fatalf("%s %s: error mismatch: binary %q, JSON %q", method, target, bErr.Error, jErr.Error)
		}
		return
	}
	if ft != out.frame() {
		t.Fatalf("%s %s: frame type %d, want %d", method, target, ft, out.frame())
	}
	if err := decodeWire(out, payload); err != nil {
		t.Fatalf("%s %s: decoding binary payload: %v", method, target, err)
	}
	if got := marshalIndented(out); !bytes.Equal(got, js.Body.Bytes()) {
		t.Fatalf("%s %s: binary decodes to different data\nbinary re-rendered:\n%s\nJSON answer:\n%s",
			method, target, got, js.Body.Bytes())
	}
}

// assertRawParity checks a byte-stream endpoint (tree, JSON export):
// the binary payload must carry the classic body verbatim.
func assertRawParity(t *testing.T, srv *Server, target string, want rtmodel.FrameType) {
	t.Helper()
	js := doProto(t, srv, http.MethodGet, target, nil, false)
	bn := doProto(t, srv, http.MethodGet, target, nil, true)
	if js.Code != http.StatusOK || bn.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d / %d", target, js.Code, bn.Code)
	}
	ft, payload, _, err := rtmodel.DecodeEnvelope(bn.Body.Bytes())
	if err != nil {
		t.Fatalf("GET %s: binary envelope: %v", target, err)
	}
	if ft != want {
		t.Fatalf("GET %s: frame type %d, want %d", target, ft, want)
	}
	if !bytes.Equal(payload, js.Body.Bytes()) {
		t.Fatalf("GET %s: binary payload differs from the classic body (%d vs %d bytes)",
			target, len(payload), js.Body.Len())
	}
}

// selectIdents answers a selector over the JSON protocol and collects
// the non-empty idents of the matches — the discovery step the parity
// suite uses to find elements, energy tables and channels per model.
func selectIdents(t *testing.T, srv *Server, model, selector string, limit int) []string {
	t.Helper()
	target := fmt.Sprintf("/v1/models/%s/select?q=%s&limit=%d", model, selector, limit)
	rec := doProto(t, srv, http.MethodGet, target, nil, false)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
	}
	var resp SelectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range resp.Elements {
		if e.Ident != "" {
			out = append(out, e.Ident)
		}
	}
	return out
}

var parityModels = []string{"XScluster", "liu_gpu_server", "myriad_server", "myriad_standalone"}

func TestBinaryJSONParity(t *testing.T) {
	srv, _ := newModelServer(t, Config{AllowRefresh: true})

	for _, m := range parityModels {
		m := m
		t.Run(m, func(t *testing.T) {
			base := "/v1/models/" + m
			assertParity(t, srv, http.MethodGet, base, nil, &ModelInfo{})
			assertRawParity(t, srv, base+"/tree", frameRawTree)
			assertRawParity(t, srv, base+"/json", frameRawJSON)
			assertParity(t, srv, http.MethodGet, base+"/summary", nil, &SummaryResponse{})

			// Element lookups: the idents the model actually contains,
			// plus one guaranteed miss (error parity).
			idents := selectIdents(t, srv, m, "//core", 3)
			idents = append(idents, selectIdents(t, srv, m, "/*", 3)...)
			idents = append(idents, "no-such-element")
			for _, id := range idents {
				assertParity(t, srv, http.MethodGet, base+"/element?ident="+id, nil, &ElementJSON{})
			}

			// Selects: indexed, positional, wildcard, limited, and a parse
			// error.
			for _, q := range []string{"//core", "//core&limit=8", "//core[1]", "//*&limit=5", "/missing-kind", "//core[bad"} {
				assertParity(t, srv, http.MethodGet, base+"/select?q="+q, nil, &SelectResponse{})
			}
			body, _ := json.Marshal(SelectRequest{Selector: "//core", Limit: 4})
			assertParity(t, srv, http.MethodPost, base+"/select", body, &SelectResponse{})

			// Evals: number, bool, string, and an eval error.
			for _, e := range []string{"num_cores()", "num_cores() > 0", "1 + 2 * 3", "no_such_fn()"} {
				eb, _ := json.Marshal(EvalRequest{Expr: e})
				assertParity(t, srv, http.MethodPost, base+"/eval", eb, &EvalResponse{})
			}

			// Batch: every result kind in one envelope, including in-band
			// per-op errors.
			bb, _ := json.Marshal(BatchRequest{Ops: []BatchOp{
				{Op: "select", Selector: "//core", Limit: 2},
				{Op: "eval", Expr: "num_cores()"},
				{Op: "select", Selector: "//core[bad"},
				{Op: "flush"},
			}})
			assertParity(t, srv, http.MethodPost, base+"/batch", bb, &BatchResponse{})

			// Energy tables and transfer channels, where the model has
			// them; the miss cases exercise 404 parity everywhere else.
			tables := selectIdents(t, srv, m, "//instructions", 2)
			tables = append(tables, "no-such-table")
			for _, tb := range tables {
				assertParity(t, srv, http.MethodGet, base+"/energy?table="+tb, nil, &EnergyResponse{})
				assertParity(t, srv, http.MethodGet,
					base+"/energy?table="+tb+"&inst=add&ghz=1.0", nil, &EnergyResponse{})
			}
			channels := selectIdents(t, srv, m, "//channel", 2)
			channels = append(channels, selectIdents(t, srv, m, "//interconnect", 2)...)
			channels = append(channels, "no-such-channel")
			for _, ch := range channels {
				assertParity(t, srv, http.MethodGet,
					base+"/transfer?channel="+ch+"&bytes=4096&messages=2", nil, &TransferResponse{})
			}

			// Dispatch: selectable variants with costs plus an always-false
			// one.
			db, _ := json.Marshal(DispatchRequest{
				Component: "kernel",
				Variants: []VariantJSON{
					{Name: "cpu", Selectable: "num_cores() > 0", Cost: "num_cores()"},
					{Name: "gpu", Selectable: "num_cores() < 0", Cost: "1"},
				},
			})
			assertParity(t, srv, http.MethodPost, base+"/dispatch", db, &DispatchResponse{})
		})
	}

	// Store-level endpoints once all four models are resident.
	assertParity(t, srv, http.MethodGet, "/healthz", nil, &HealthResponse{})
	assertParity(t, srv, http.MethodGet, "/v1/models", nil, &ModelsResponse{})
	assertParity(t, srv, http.MethodGet, "/v1/models/unknown-model", nil, &ModelInfo{})

	// Refresh parity on the smallest model (each call costs a full
	// toolchain run).
	assertParity(t, srv, http.MethodPost, "/v1/models/myriad_standalone/refresh", nil, &RefreshResponse{})
}

// TestBinaryNotNegotiatedUnchanged pins the compatibility promise:
// requests that do not ask for the binary protocol — no Accept at all,
// or commonplace ones — get byte-identical classic answers.
func TestBinaryNotNegotiatedUnchanged(t *testing.T) {
	srv, _ := newModelServer(t, Config{})
	base := doProto(t, srv, http.MethodGet, "/v1/models/myriad_standalone/summary", nil, false)
	for _, accept := range []string{"*/*", "application/json", "text/html,application/json;q=0.9"} {
		req := httptest.NewRequest(http.MethodGet, "/v1/models/myriad_standalone/summary", nil)
		req.Header.Set("Accept", accept)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("Accept %q: Content-Type %q", accept, ct)
		}
		if !bytes.Equal(rec.Body.Bytes(), base.Body.Bytes()) {
			t.Fatalf("Accept %q changed the response body", accept)
		}
	}
}

// TestPreSerializedCounters checks that summary and tree (rendered at
// publish) and json and element (rendered on first access) are all
// served from per-snapshot pre-serialized bytes.
func TestPreSerializedCounters(t *testing.T) {
	srv, _ := newModelServer(t, Config{})
	before := mPreserHits.Value()
	for _, target := range []string{
		"/v1/models/myriad_standalone/summary",
		"/v1/models/myriad_standalone/tree",
		"/v1/models/myriad_standalone/json",
		"/v1/models/myriad_standalone/element?ident=myriad_standalone",
		"/v1/models/myriad_standalone/element?ident=myriad_standalone", // cached second hit
	} {
		rec := doProto(t, srv, http.MethodGet, target, nil, false)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
		}
	}
	if got := mPreserHits.Value() - before; got < 5 {
		t.Fatalf("pre-serialized hits = %d, want >= 5", got)
	}
}
