package serve

import (
	"net/http"
	"testing"
)

// benchDo drives one JSON request through the in-process mux.
func benchDo(b *testing.B, srv *Server, method, target, body string) {
	benchProtoDo(b, srv, method, target, body, false)
}

// BenchmarkServeSummary measures the hot path of an already-resident
// snapshot: pointer load, LRU touch, derived-analysis roll-up, JSON
// encode.
func BenchmarkServeSummary(b *testing.B) {
	srv, _ := newModelServer(b, Config{})
	benchDo(b, srv, http.MethodGet, "/v1/models/myriad_standalone/summary", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDo(b, srv, http.MethodGet, "/v1/models/myriad_standalone/summary", "")
	}
}

// BenchmarkServeSelect measures selector evaluation over the resident
// snapshot.
func BenchmarkServeSelect(b *testing.B) {
	srv, _ := newModelServer(b, Config{})
	benchDo(b, srv, http.MethodGet, "/v1/models/myriad_standalone/select?q=%2F%2Fcore", "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDo(b, srv, http.MethodGet, "/v1/models/myriad_standalone/select?q=%2F%2Fcore", "")
	}
}

// BenchmarkServeEval measures expression evaluation through the full
// request-decode path.
func BenchmarkServeEval(b *testing.B) {
	srv, _ := newModelServer(b, Config{})
	const body = `{"expr": "num_cores() >= 4 && installed('StarPU')"}`
	benchDo(b, srv, http.MethodPost, "/v1/models/myriad_standalone/eval", body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDo(b, srv, http.MethodPost, "/v1/models/myriad_standalone/eval", body)
	}
}

// benchProtoDo drives one request with an optional binary-protocol
// negotiation.
func benchProtoDo(b *testing.B, srv *Server, method, target, body string, bin bool) {
	if code := newInProcess(srv, method, target, body, bin).do(); code != http.StatusOK {
		b.Fatalf("%s %s: status %d", method, target, code)
	}
}

// Request bodies of the XScluster cases of BenchmarkServeBinary and
// TestLargeModelAllocBudget.
const (
	largeEvalBody     = `{"expr": "num_cores() >= 4 && installed('CUDA') && total_static_power() > 0"}`
	largeDispatchBody = `{"component": "gemm", "vars": {"n": 4096}, "variants": [
		{"name": "cpu", "selectable": "num_cores() >= 1", "cost": "n / num_cores()"},
		{"name": "gpu", "selectable": "num_cuda_devices() > 0", "cost": "n / (num_cuda_devices() * 400) + 2"},
		{"name": "serial", "cost": "n"}]}`
	largeBatchBody = `{"ops": [{"op": "select", "selector": "//cpu", "limit": 16}, {"op": "eval", "expr": "num_cores()"},
		{"op": "eval", "expr": "has_kind('device')"}, {"op": "eval", "expr": "num_cuda_devices() * 2"}]}`
)

// BenchmarkServeBinary measures the binary protocol's serving hot
// paths against the classic JSON ones — the numbers behind the alloc
// budget in testdata/alloc_budget.json and CI's BENCH_6.json gate.
func BenchmarkServeBinary(b *testing.B) {
	srv, _ := newModelServer(b, Config{})
	cases := []struct {
		name, method, target, body string
		bin                        bool
	}{
		{"summary-json", http.MethodGet, "/v1/models/myriad_standalone/summary", "", false},
		{"summary-bin", http.MethodGet, "/v1/models/myriad_standalone/summary", "", true},
		{"select-json", http.MethodGet, "/v1/models/myriad_standalone/select?q=%2F%2Fcore", "", false},
		{"select-bin", http.MethodGet, "/v1/models/myriad_standalone/select?q=%2F%2Fcore", "", true},
		{"element-json", http.MethodGet, "/v1/models/myriad_standalone/element?ident=myriad_standalone", "", false},
		{"element-bin", http.MethodGet, "/v1/models/myriad_standalone/element?ident=myriad_standalone", "", true},
		{"batch-bin", http.MethodPost, "/v1/models/myriad_standalone/batch",
			`{"ops": [{"op": "select", "selector": "//core"}, {"op": "eval", "expr": "num_cores()"}]}`, true},
		// The platform functions on the largest bundled model: a
		// per-element walk would cost thousands of allocations here.
		{"eval-bin", http.MethodPost, "/v1/models/XScluster/eval", largeEvalBody, true},
		{"dispatch-bin", http.MethodPost, "/v1/models/XScluster/dispatch", largeDispatchBody, true},
		{"batch-xs-bin", http.MethodPost, "/v1/models/XScluster/batch", largeBatchBody, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			req := newInProcess(srv, c.method, c.target, c.body, c.bin)
			if code := req.do(); code != http.StatusOK {
				b.Fatalf("%s %s: status %d", c.method, c.target, code)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if code := req.do(); code != http.StatusOK {
					b.Fatalf("%s %s: status %d", c.method, c.target, code)
				}
			}
		})
	}
}
