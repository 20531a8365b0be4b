package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"xpdl/internal/rtmodel"
)

// allocBudget is the checked-in allocation ceiling for the binary
// serving hot paths (testdata/alloc_budget.json). The values carry
// headroom over the measured numbers; a regression that blows through
// them — an encoder that stopped pooling, a response that started
// marshaling per request — fails this test and the CI bench gate.
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
	ServeSummaryBin float64 `json:"serve_summary_bin"`
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

	// Whole-request paths, harness included.
	request := func(target string) func() {
		return func() {
			req := httptest.NewRequest(http.MethodGet, target, nil)
			req.Header.Set("Accept", ContentTypeBinary)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: status %d", target, rec.Code)
			}
		}
	}
	sel := request("/v1/models/myriad_standalone/select?q=%2F%2Fcore")
	sel()
	if got := testing.AllocsPerRun(200, sel); got > budget.ServeSelectBin {
		t.Errorf("binary select request: %.1f allocs/op, budget %.0f", got, budget.ServeSelectBin)
	}
	sum := request("/v1/models/myriad_standalone/summary")
	sum()
	if got := testing.AllocsPerRun(200, sum); got > budget.ServeSummaryBin {
		t.Errorf("binary summary request: %.1f allocs/op, budget %.0f", got, budget.ServeSummaryBin)
	}
}
