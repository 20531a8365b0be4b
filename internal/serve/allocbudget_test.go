package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xpdl/internal/rtmodel"
)

// allocBudget is the checked-in allocation ceiling for the binary
// serving hot paths (testdata/alloc_budget.json). The values carry
// headroom over the measured numbers; a regression that blows through
// them — an encoder that stopped pooling, a response that started
// marshaling per request — fails this test and the CI bench gate.
// The file also holds rtmodel_build_xscluster and resolve_xscluster,
// which internal/rtmodel's TestBuildAllocBudget and internal/resolve's
// TestResolveAllocBudget read.
type allocBudget struct {
	// SelectBinEncode bounds encoding one indexed-select answer into a
	// pooled encoder, framing included. This is the protocol layer
	// alone and must stay at (effectively) zero.
	SelectBinEncode float64 `json:"select_bin_encode"`
	// ServeSelectBin bounds a whole binary /select request through the
	// HTTP stack (mux, tracing, limiter, handler, encode).
	ServeSelectBin float64 `json:"serve_select_bin"`
	// ServeSummaryBin bounds a whole binary /summary request — the
	// pre-serialized path, so it is the floor the stack imposes.
	// ServeSummaryJSON is the same floor in the classic protocol, and
	// ServeElementBin the other pre-serialized answer.
	ServeSummaryBin  float64 `json:"serve_summary_bin"`
	ServeSummaryJSON float64 `json:"serve_summary_json"`
	ServeElementBin  float64 `json:"serve_element_bin"`
	// ServeEvalBinLarge, ServeDispatchBinLarge and ServeBatchBinLarge
	// bound whole binary /eval, /dispatch and /batch requests on
	// XScluster, where a per-element cost cannot hide.
	ServeEvalBinLarge     float64 `json:"serve_eval_bin_xscluster"`
	ServeDispatchBinLarge float64 `json:"serve_dispatch_bin_xscluster"`
	ServeBatchBinLarge    float64 `json:"serve_batch_bin_xscluster"`
	// ServePrepare bounds readying one full XScluster snapshot for
	// publishing: selector indexes, summary and tree. The sized builders
	// allocate a fixed handful of arrays per snapshot, where a per-node
	// builder allocates one or more per element.
	ServePrepare float64 `json:"serve_prepare_xscluster"`
}

// inProcess drives one request straight into a Server with a
// hand-built request and a reused response writer.
// httptest.NewRequest parses request text and httptest.ResponseRecorder
// copies the header map at WriteHeader: about 18 allocations per
// request that belong to the harness, not to the server. Here the
// harness costs three (the request, its body reader and closer), so an
// allocation count measures the server.
type inProcess struct {
	srv          *Server
	method, body string
	u            *url.URL
	header       http.Header // shared by every request: the server only reads it
	w            discardWriter
}

func newInProcess(srv *Server, method, target, body string, bin bool) *inProcess {
	u, err := url.ParseRequestURI(target)
	if err != nil {
		panic(err)
	}
	h := http.Header{}
	if body != "" {
		h.Set("Content-Type", "application/json")
	}
	if bin {
		h.Set("Accept", ContentTypeBinary)
	}
	return &inProcess{srv: srv, method: method, body: body, u: u, header: h, w: discardWriter{h: http.Header{}}}
}

// do serves the request once and returns the response status.
func (c *inProcess) do() int {
	clear(c.w.h)
	c.w.code = 0
	c.srv.ServeHTTP(&c.w, &http.Request{
		Method:        c.method,
		URL:           c.u,
		RequestURI:    c.u.RequestURI(),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        c.header,
		Body:          io.NopCloser(strings.NewReader(c.body)),
		ContentLength: int64(len(c.body)),
		Host:          "example.com",
		RemoteAddr:    "192.0.2.1:1234",
	})
	return c.w.code
}

// discardWriter is a ResponseWriter that keeps the status and drops
// the body.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

func readAllocBudget(t *testing.T) allocBudget {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "alloc_budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b allocBudget
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBinarySelectAllocBudget gates allocations per operation on the
// binary select path against the checked-in budget.
func TestBinarySelectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	budget := readAllocBudget(t)
	srv, store := newModelServer(t, Config{})
	snap, err := store.Get(context.Background(), "myriad_standalone")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.runSelect(nil, snap, "//core", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Protocol layer alone: pooled encoder, encode, frame headers.
	encodeOnce := func() {
		e := getEnc()
		resp.wire(codec{e: e})
		var hdr [rtmodel.MaxFrameHeader]byte
		n := rtmodel.PutWireHeader(hdr[:])
		_ = rtmodel.PutFrameHeader(hdr[n:], resp.frame(), len(e.Buf))
		putEnc(e)
	}
	encodeOnce() // warm the pool and the buffer capacity
	if got := testing.AllocsPerRun(500, encodeOnce); got > budget.SelectBinEncode {
		t.Errorf("binary select encode: %.1f allocs/op, budget %.0f", got, budget.SelectBinEncode)
	}

	// Whole-request paths through the HTTP stack.
	sel := newInProcess(srv, http.MethodGet, "/v1/models/myriad_standalone/select?q=%2F%2Fcore", "", true)
	checkRequestAllocs(t, sel, budget.ServeSelectBin)
	sum := newInProcess(srv, http.MethodGet, "/v1/models/myriad_standalone/summary", "", true)
	checkRequestAllocs(t, sum, budget.ServeSummaryBin)
	sumJSON := newInProcess(srv, http.MethodGet, "/v1/models/myriad_standalone/summary", "", false)
	checkRequestAllocs(t, sumJSON, budget.ServeSummaryJSON)
	elem := newInProcess(srv, http.MethodGet, "/v1/models/myriad_standalone/element?ident=myriad_standalone", "", true)
	checkRequestAllocs(t, elem, budget.ServeElementBin)
}

// checkRequestAllocs fails t when one request allocates more than
// budget objects on average.
func checkRequestAllocs(t *testing.T, req *inProcess, budget float64) {
	t.Helper()
	fail := false
	serve := func() {
		if code := req.do(); code != http.StatusOK {
			fail = true
		}
	}
	serve() // warm pools, caches and the header map
	got := testing.AllocsPerRun(200, serve)
	if fail {
		t.Fatalf("%s %s: status %d", req.method, req.u, req.w.code)
	}
	if got > budget {
		t.Errorf("%s %s: %.1f allocs/op, budget %.0f", req.method, req.u, got, budget)
	}
}

// TestLargeModelAllocBudget gates the binary eval, dispatch and batch
// requests on XScluster, the largest bundled model (44k elements):
// platform functions that walked the model per call would cost
// thousands of allocations here, where on myriad_standalone they cost
// tens.
func TestLargeModelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	budget := readAllocBudget(t)
	srv, _ := newModelServer(t, Config{})
	for _, c := range []struct {
		endpoint, body string
		budget         float64
	}{
		{"eval", largeEvalBody, budget.ServeEvalBinLarge},
		{"dispatch", largeDispatchBody, budget.ServeDispatchBinLarge},
		{"batch", largeBatchBody, budget.ServeBatchBinLarge},
	} {
		checkRequestAllocs(t, newInProcess(srv, http.MethodPost, "/v1/models/XScluster/"+c.endpoint, c.body, true), c.budget)
	}
}
