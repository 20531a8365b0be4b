package resolve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"xpdl/internal/model"
	"xpdl/internal/repo"
)

// resolveSink keeps the compiler from dropping a measured resolution.
var resolveSink *model.Component

func modelsRepo(tb testing.TB) *repo.Repository {
	tb.Helper()
	rp, err := repo.New(filepath.Join("..", "..", "models"))
	if err != nil {
		tb.Fatal(err)
	}
	return rp
}

// BenchmarkResolve measures one cold composition of XScluster (44k
// elements, mostly group members) with a fresh resolver, so meta-model
// flattening is included. CI gates its allocations (resolve_xscluster
// in internal/serve/testdata/alloc_budget.json).
func BenchmarkResolve(b *testing.B) {
	rp := modelsRepo(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := New(rp).ResolveSystem("XScluster")
		if err != nil {
			b.Fatal(err)
		}
		resolveSink = out
	}
}

// TestResolveAllocBudget gates the allocations of resolving XScluster
// in process. Group members after the first are copies of it, each one
// slab of components and one of child pointers plus the per-node maps;
// instantiating every member again allocates several times as much.
func TestResolveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	data, err := os.ReadFile(filepath.Join("..", "serve", "testdata", "alloc_budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		Resolve float64 `json:"resolve_xscluster"`
	}
	if err := json.Unmarshal(data, &budget); err != nil {
		t.Fatal(err)
	}
	if budget.Resolve <= 0 {
		t.Fatal("alloc_budget.json has no resolve_xscluster budget")
	}
	rp := modelsRepo(t)
	got := testing.AllocsPerRun(3, func() {
		out, err := New(rp).ResolveSystem("XScluster")
		if err != nil {
			t.Fatal(err)
		}
		resolveSink = out
	})
	if got > budget.Resolve {
		t.Errorf("ResolveSystem(XScluster): %.0f allocs, budget %.0f", got, budget.Resolve)
	}
}
