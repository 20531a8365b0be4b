package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xpdl/internal/core"
)

// TestColdLoadSeesLocalEdit: a store built before a descriptor edit
// and first queried after it must resolve the edited file. The loader's
// repository parsed every descriptor when it was built, so without a
// revalidation of the cache the first load answers the pre-edit
// 332 W instead of 348 W.
func TestColdLoadSeesLocalEdit(t *testing.T) {
	dir := copyModels(t)
	loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(loader, 1) // one resident model, so a second one evicts
	ctx := context.Background()

	xeon := filepath.Join(dir, "cpu", "Intel_Xeon_E5_2630L.xpdl")
	edit := func(from, to string, mtime time.Time) {
		t.Helper()
		src, err := os.ReadFile(xeon)
		if err != nil {
			t.Fatal(err)
		}
		edited := strings.Replace(string(src), from, to, 1)
		if edited == string(src) {
			t.Fatalf("%s not found in the fixture", from)
		}
		if err := os.WriteFile(xeon, []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		// Same size as before: only the mtime tells the edit apart.
		if err := os.Chtimes(xeon, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(xeon)
	if err != nil {
		t.Fatal(err)
	}
	edit(`static_power="15"`, `static_power="17"`, info.ModTime().Add(time.Hour))
	power := func(label string) float64 {
		t.Helper()
		snap, err := st.Get(ctx, "XScluster")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return summaryOf(snap).StaticPowerW
	}
	if got := power("first load"); got != 348 {
		t.Fatalf("first load after the edit answers %v W, want 348 (332 is the pre-edit file)", got)
	}

	// A reload after LRU eviction sees a later edit too.
	if _, err := st.Get(ctx, "liu_gpu_server"); err != nil {
		t.Fatal(err)
	}
	edit(`static_power="17"`, `static_power="15"`, info.ModTime().Add(2*time.Hour))
	if got := power("reload after eviction"); got != 332 {
		t.Fatalf("reload after eviction answers %v W, want 332", got)
	}
}
