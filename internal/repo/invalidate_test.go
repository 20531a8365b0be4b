package repo

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xpdl/internal/model"
	"xpdl/internal/repo/server"
)

// TestInvalidateLocalReparse: after Invalidate, a Load of a local
// descriptor re-parses the file from disk so on-disk edits become
// visible — the hook xpdld's revalidator relies on.
func TestInvalidateLocalReparse(t *testing.T) {
	dir := t.TempDir()
	writeModels(t, dir, map[string]string{
		"cache.xpdl": `<cache name="HotL2" size="128" unit="KiB" />`,
	})
	r, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Load("HotL2")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.AttrRaw("size"); got != "128" {
		t.Fatalf("size = %q, want 128", got)
	}

	// Edit the file; without Invalidate the cached parse is served.
	writeModels(t, dir, map[string]string{
		"cache.xpdl": `<cache name="HotL2" size="256" unit="KiB" />`,
	})
	c, err = r.Load("HotL2")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.AttrRaw("size"); got != "128" {
		t.Fatalf("pre-invalidate size = %q, want cached 128", got)
	}

	r.Invalidate()
	c, err = r.Load("HotL2")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.AttrRaw("size"); got != "256" {
		t.Fatalf("post-invalidate size = %q, want re-parsed 256", got)
	}
	if s := r.Stats(); s.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", s.Invalidations)
	}
}

// TestInvalidateKeepsMemoryRegistrations: descriptors registered
// without a backing file cannot be re-loaded, so Invalidate keeps them.
func TestInvalidateKeepsMemoryRegistrations(t *testing.T) {
	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register(&model.Component{Kind: "cpu", Name: "synthetic"}); err != nil {
		t.Fatal(err)
	}
	r.Invalidate()
	if _, err := r.Load("synthetic"); err != nil {
		t.Fatalf("memory registration lost after Invalidate: %v", err)
	}
}

// TestInvalidateIdentRenameOnDisk: when the file behind an identifier
// is rewritten under a different root name, the stale identifier stops
// resolving instead of serving the wrong descriptor.
func TestInvalidateIdentRenameOnDisk(t *testing.T) {
	dir := t.TempDir()
	writeModels(t, dir, map[string]string{
		"cache.xpdl": `<cache name="OldName" size="128" unit="KiB" />`,
	})
	r, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load("OldName"); err != nil {
		t.Fatal(err)
	}
	writeModels(t, dir, map[string]string{
		"cache.xpdl": `<cache name="NewName" size="128" unit="KiB" />`,
	})
	r.Invalidate()
	if _, err := r.Load("OldName"); err == nil {
		t.Fatal("stale identifier still resolves after rename + Invalidate")
	} else if !strings.Contains(err.Error(), "not found") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestInvalidateRemoteRevalidates304: an invalidated remote descriptor
// is re-fetched with a conditional request; an unchanged body comes
// back as a 304 served from the on-disk cache — the existing ETag
// machinery doing the revalidation work for the serving daemon.
func TestInvalidateRemoteRevalidates304(t *testing.T) {
	remoteDir := t.TempDir()
	writeModels(t, remoteDir, map[string]string{
		"gpu.xpdl": `<gpu name="RemoteGPU" static_power="25" static_power_unit="W" />`,
	})
	h, err := server.New(remoteDir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	defer ts.Close()

	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFetchConfig()
	cfg.CacheDir = t.TempDir()
	if err := r.SetFetchConfig(cfg); err != nil {
		t.Fatal(err)
	}
	r.AddRemote(ts.URL)

	if _, err := r.Load("RemoteGPU"); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.RemoteFetches != 1 || s.NotModified != 0 {
		t.Fatalf("after first load: %+v", s)
	}

	r.Invalidate()
	if _, err := r.Load("RemoteGPU"); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.NotModified != 1 {
		t.Fatalf("after revalidation: NotModified = %d, want 1 (stats %+v)", s.NotModified, s)
	}

	// A genuine upstream change replaces the cached body.
	writeModels(t, remoteDir, map[string]string{
		"gpu.xpdl": `<gpu name="RemoteGPU" static_power="30" static_power_unit="W" />`,
	})
	h2, err := server.New(remoteDir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()
	r2, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.SetFetchConfig(cfg); err != nil {
		t.Fatal(err)
	}
	r2.AddRemote(ts2.URL)
	c, err := r2.Load("RemoteGPU")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.AttrRaw("static_power"); got != "30" {
		t.Fatalf("static_power = %q, want fresh 30", got)
	}
}

// TestRevalidateDropsChangedFiles: Revalidate drops exactly the cached
// local descriptors whose file changed size or mtime or is gone, keeps
// the rest and in-memory registrations, and has nothing to check right
// after Invalidate.
func TestRevalidateDropsChangedFiles(t *testing.T) {
	dir := t.TempDir()
	writeModels(t, dir, map[string]string{
		"a.xpdl": `<cache name="A" size="128" unit="KiB" />`,
		"b.xpdl": `<cache name="B" size="128" unit="KiB" />`,
		"c.xpdl": `<cache name="C" size="128" unit="KiB" />`,
		"d.xpdl": `<cache name="D" size="128" unit="KiB" />`,
	})
	r, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register(&model.Component{Kind: "cpu", Name: "synthetic"}); err != nil {
		t.Fatal(err)
	}
	if n := r.Revalidate(); n != 0 {
		t.Fatalf("Revalidate of untouched files dropped %d", n)
	}
	// A: same size, later mtime. B: different size, same mtime.
	// C: removed. D: untouched.
	a := filepath.Join(dir, "a.xpdl")
	info, err := os.Stat(a)
	if err != nil {
		t.Fatal(err)
	}
	writeModels(t, dir, map[string]string{
		"a.xpdl": `<cache name="A" size="256" unit="KiB" />`,
		"b.xpdl": `<cache name="B" size="1024" unit="KiB" />`,
	})
	if err := os.Chtimes(a, info.ModTime(), info.ModTime().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "b.xpdl")
	if err := os.Chtimes(b, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "c.xpdl")); err != nil {
		t.Fatal(err)
	}
	if n := r.Revalidate(); n != 3 {
		t.Fatalf("Revalidate dropped %d, want 3 (A, B, C)", n)
	}
	for ident, want := range map[string]bool{"A": false, "B": false, "C": false, "D": true, "synthetic": true} {
		if got := r.Has(ident); got != want {
			t.Errorf("Has(%s) = %v after Revalidate, want %v", ident, got, want)
		}
	}
	for ident, want := range map[string]string{"A": "256", "B": "1024", "D": "128"} {
		c, err := r.Load(ident)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.AttrRaw("size"); got != want {
			t.Errorf("%s size = %q, want %q", ident, got, want)
		}
	}
	if n := r.Revalidate(); n != 0 {
		t.Fatalf("Revalidate after the re-parse dropped %d, want 0", n)
	}
	r.Invalidate()
	if n := r.Revalidate(); n != 0 {
		t.Fatalf("Revalidate after Invalidate dropped %d, want 0", n)
	}
}
