package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/query"
)

// Refresh benchmarks for EXPERIMENTS.md E19: the cost of propagating a
// single-attribute descriptor edit (Xeon static_power, which every
// XScluster core group inherits) through a full re-resolve versus the
// delta patch path. Both loops flip the value every iteration so each
// refresh observes a real change; loader-level, so the comparison
// isolates resolution cost from snapshot pre-serialization.

// benchRefreshSetup boots a toolchain loader over a private corpus
// copy, loads XScluster, and returns the two Xeon file variants the
// loop alternates between.
func benchRefreshSetup(b *testing.B) (loader *ToolchainLoader, snap *Snapshot, xeon string, variants [2][]byte) {
	b.Helper()
	dir := copyModels(b)
	loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
	if err != nil {
		b.Fatal(err)
	}
	snap, err = loader.Load(context.Background(), "XScluster")
	if err != nil {
		b.Fatal(err)
	}
	xeon = filepath.Join(dir, "cpu", "Intel_Xeon_E5_2630L.xpdl")
	orig, err := os.ReadFile(xeon)
	if err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(string(orig), `static_power="15"`) {
		b.Fatalf("fixture drifted: no static_power=\"15\" in %s", xeon)
	}
	variants[0] = []byte(strings.Replace(string(orig), `static_power="15"`, `static_power="17"`, 1))
	variants[1] = orig
	return
}

func BenchmarkFullRefresh(b *testing.B) {
	loader, _, xeon, variants := benchRefreshSetup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := os.WriteFile(xeon, variants[i%2], 0o644); err != nil {
			b.Fatal(err)
		}
		loader.Invalidate()
		if _, err := loader.Load(ctx, "XScluster"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaRefresh(b *testing.B) {
	loader, snap, xeon, variants := benchRefreshSetup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := os.WriteFile(xeon, variants[i%2], 0o644); err != nil {
			b.Fatal(err)
		}
		loader.Invalidate()
		res, err := loader.LoadDelta(ctx, snap)
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != DeltaPatched {
			b.Fatalf("iteration %d: outcome %v (reason %q), want DeltaPatched", i, res.Outcome, res.Reason)
		}
		snap = res.Snap
	}
}

// BenchmarkPrepare measures the publish tax of one full XScluster
// snapshot: selector index build plus the answers rendered before the
// pointer swap (EXPERIMENTS.md E23, E28). Each iteration prepares a
// fresh session over the same runtime model, as a cold load would. CI
// gates its allocations (serve_prepare_xscluster in
// testdata/alloc_budget.json).
func BenchmarkPrepare(b *testing.B) {
	_, snap, _, _ := benchRefreshSetup(b)
	m := snap.Session.Model()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &Snapshot{Ident: snap.Ident, Session: query.NewSession(m)}
		prepare(s)
	}
}

// TestPrepareAllocBudget gates BenchmarkPrepare's allocations in
// process against serve_prepare_xscluster.
func TestPrepareAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	budget := readAllocBudget(t)
	if budget.ServePrepare <= 0 {
		t.Fatal("alloc_budget.json has no serve_prepare_xscluster budget")
	}
	loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{modelsDir(t)}})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := loader.Load(context.Background(), "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	m := snap.Session.Model()
	got := testing.AllocsPerRun(3, func() {
		prepare(&Snapshot{Ident: snap.Ident, Session: query.NewSession(m)})
	})
	if got > budget.ServePrepare {
		t.Errorf("prepare(XScluster): %.0f allocs, budget %.0f", got, budget.ServePrepare)
	}
}
