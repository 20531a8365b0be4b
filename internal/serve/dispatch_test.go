package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"testing"

	"xpdl/internal/composition"
	"xpdl/internal/expr"
	"xpdl/internal/obs"
	"xpdl/internal/query"
)

// dispatchReference answers a dispatch request the way the handler did
// when it ran Selectable and then Select, which ran Selectable again,
// parsing every expression at each evaluation. It returns the answer,
// or the 422 message when no variant is selectable.
func dispatchReference(sess *query.Session, req DispatchRequest) (DispatchResponse, string) {
	vars, err := toExprVars(req.Vars)
	if err != nil {
		panic(err)
	}
	ctx := composition.Context{Session: sess, Vars: vars}
	comp := &composition.Component{Name: req.Component}
	costs := map[string]float64{}
	for _, vj := range req.Variants {
		costExpr, name := vj.Cost, vj.Name
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
		return DispatchResponse{}, err.Error()
	}
	resp := DispatchResponse{Selectable: []string{}, Chosen: chosen.Name, Costs: costs}
	for _, v := range selectable {
		resp.Selectable = append(resp.Selectable, v.Name)
	}
	sort.Strings(resp.Selectable)
	if selErr != nil {
		resp.Warning = selErr.Error()
	}
	return resp, ""
}

// gemmRequest is the dispatch request of the benchmark's query mix.
func gemmRequest(n float64) DispatchRequest {
	return DispatchRequest{
		Component: "gemm",
		Variants: []VariantJSON{
			{Name: "cpu", Selectable: "num_cores() >= 1", Cost: "n / num_cores()"},
			{Name: "gpu", Selectable: "num_cuda_devices() > 0", Cost: "n / (num_cuda_devices() * 400) + 2"},
			{Name: "serial", Cost: "n"},
		},
		Vars: map[string]any{"n": n},
	}
}

// TestDispatchEvaluatesOnce checks that /dispatch evaluates each guard
// once and the cost of each selectable variant once, and that its
// answers in both protocols are byte-identical to the answers of the
// twice-evaluating handler: for the benchmark's requests, for guards
// and costs that fail, and for the 422 when nothing is selectable.
func TestDispatchEvaluatesOnce(t *testing.T) {
	srv, store := newModelServer(t, Config{})
	envCalls := obs.Default().Counter("xpdl_query_env_calls_total", "")
	cases := []struct {
		name  string
		model string
		req   DispatchRequest
		calls int64 // function calls in the guards, plus in the selectable variants' costs
	}{
		{"gemm small n", "myriad_standalone", gemmRequest(1), 3},
		{"gemm large n", "myriad_standalone", gemmRequest(99991), 3},
		{"gemm", "liu_gpu_server", gemmRequest(4096), 4},
		{"gemm", "XScluster", gemmRequest(77777), 4},
		{"erroring guard", "liu_gpu_server", DispatchRequest{Component: "c", Variants: []VariantJSON{
			{Name: "bad", Selectable: "nosuch(num_cores())", Cost: "1"},
			{Name: "unparsable", Selectable: "num_cores(", Cost: "2"},
			{Name: "ok", Selectable: "has_kind('device')", Cost: "total_static_power()"},
		}}, 4},
		{"erroring cost", "liu_gpu_server", DispatchRequest{Component: "c", Variants: []VariantJSON{
			{Name: "a", Selectable: "installed('CUDA')", Cost: "'text'"},
			{Name: "b", Cost: "attr('gpu1', 'compute_capability') + 1"},
			{Name: "c", Cost: "nosuch()"},
		}}, 3},
		{"no selectable", "liu_gpu_server", DispatchRequest{Component: "c", Variants: []VariantJSON{
			{Name: "a", Selectable: "num_cores() < 0", Cost: "1"},
			{Name: "b", Selectable: "!installed('CUDA')", Cost: "2"},
		}}, 2},
		{"no selectable, guard error", "liu_gpu_server", DispatchRequest{Component: "c", Variants: []VariantJSON{
			{Name: "a", Selectable: "num_cores() < 0", Cost: "1"},
			{Name: "b", Selectable: "num_cuda_devices(1)", Cost: "2"},
		}}, 2},
	}
	for _, c := range cases {
		snap, err := store.Get(t.Context(), c.model)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := dispatchReference(snap.Session, c.req)
		wantStatus, wantJSON, wantBin := http.StatusOK, marshalIndented(want), encodeBin(&want)
		if wantErr != "" {
			e := ErrorResponse{Error: wantErr}
			wantStatus, wantJSON, wantBin = http.StatusUnprocessableEntity, marshalIndented(e), encodeBin(&e)
		}
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, bin := range []bool{false, true} {
			before := envCalls.Value()
			rec := doProto(t, srv, http.MethodPost, "/v1/models/"+c.model+"/dispatch", body, bin)
			if got := int64(envCalls.Value() - before); got != c.calls {
				t.Errorf("%s on %s (bin=%v): %d platform-function calls, want %d", c.name, c.model, bin, got, c.calls)
			}
			wantBody := wantJSON
			if bin {
				wantBody = wantBin
			}
			if rec.Code != wantStatus || !bytes.Equal(rec.Body.Bytes(), wantBody) {
				t.Errorf("%s on %s (bin=%v): status %d, body\n%q\nwant status %d, body\n%q",
					c.name, c.model, bin, rec.Code, rec.Body.Bytes(), wantStatus, wantBody)
			}
		}
	}
}
