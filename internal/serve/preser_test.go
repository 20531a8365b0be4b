package serve

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
)

// TestTreeOfSized checks that the exactly sized publish-time tree
// render is byte-identical to WriteTree into a growing buffer, and
// that its size was computed exactly (len == cap), for every bundled
// system and an empty model.
func TestTreeOfSized(t *testing.T) {
	dir := modelsDir(t)
	loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	systems, err := filepath.Glob(filepath.Join(dir, "system", "*.xpdl"))
	if err != nil || len(systems) == 0 {
		t.Fatalf("no system models: %v", err)
	}
	snaps := map[string]*Snapshot{"empty": {Session: query.NewSession(&rtmodel.Model{})}}
	for _, path := range systems {
		name := strings.TrimSuffix(filepath.Base(path), ".xpdl")
		if snaps[name], err = loader.Load(context.Background(), name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for name, snap := range snaps {
		var want bytes.Buffer
		if err := WriteTree(&want, snap.Session.Root()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := treeOf(snap)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: treeOf differs from WriteTree (%d vs %d bytes)", name, len(got), want.Len())
		}
		if len(got) != cap(got) {
			t.Errorf("%s: tree len %d cap %d, want an exact size", name, len(got), cap(got))
		}
	}
}
