package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/expr"
	"xpdl/internal/query"
)

// walkSoftware lists the installed and hostOS elements by tree walk:
// the reference the served installed() and has_kind() answers are
// checked against.
func walkSoftware(e query.Elem, kinds map[string]bool, sw *[]query.Elem) {
	kinds[e.Kind()] = true
	if e.Kind() == "installed" || e.Kind() == "hostOS" {
		*sw = append(*sw, e)
	}
	for _, c := range e.Children() {
		walkSoftware(c, kinds, sw)
	}
}

// checkServedRollups asserts that a snapshot's summary and platform
// functions equal the tree walkers' answers: the totals, has_kind for
// every kind in the model and installed for every prefix of every
// installed type and ident. It returns the walker's total static power.
func checkServedRollups(t *testing.T, label string, snap *Snapshot) float64 {
	t.Helper()
	root := snap.Session.Root()
	cores, cuda, power := root.NumCores(), root.NumCUDADevices(), root.TotalStaticPower().Value
	sum := summaryOf(snap)
	if sum.Cores != cores || sum.CUDADevices != cuda || sum.StaticPowerW != power {
		t.Errorf("%s: summary %d cores, %d CUDA devices, %v W; walker %d, %d, %v",
			label, sum.Cores, sum.CUDADevices, sum.StaticPowerW, cores, cuda, power)
	}
	env := snap.Session.Env(nil)
	call := func(name string, args ...expr.Value) expr.Value {
		v, err := env.Call(name, args)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		return v
	}
	if call("num_cores").Num != float64(cores) || call("num_cuda_devices").Num != float64(cuda) ||
		call("total_static_power").Num != power {
		t.Errorf("%s: platform totals differ from the walker's %d, %d, %v", label, cores, cuda, power)
	}
	kinds := map[string]bool{}
	var sw []query.Elem
	walkSoftware(root, kinds, &sw)
	for k := range kinds {
		if !call("has_kind", expr.String(k)).Bool {
			t.Errorf("%s: has_kind(%q) is false", label, k)
		}
	}
	if call("has_kind", expr.String("no_such_kind")).Bool {
		t.Errorf("%s: has_kind of an absent kind is true", label)
	}
	prefixes := map[string]bool{"NO_SUCH_PACKAGE": false}
	for _, e := range sw {
		for _, name := range []string{e.TypeName(), e.Ident()} {
			for i := 0; i <= len(name); i++ {
				prefixes[name[:i]] = true
			}
		}
	}
	for p, want := range prefixes {
		if got := call("installed", expr.String(p)).Bool; got != want {
			t.Errorf("%s: installed(%q) = %v, walker %v", label, p, got, want)
		}
	}
	return power
}

// TestServedRollupsMatchWalker checks every bundled system model, then a
// delta-patched XScluster after a Xeon static_power 15 -> 17 edit: the
// patched snapshot answers the new total, over HTTP too, while the
// pre-edit snapshot still answers the old one.
func TestServedRollupsMatchWalker(t *testing.T) {
	dir := copyModels(t)
	loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(loader, 0)
	srv := NewServer(Config{Store: st})
	ctx := context.Background()
	systems, err := filepath.Glob(filepath.Join(dir, "system", "*.xpdl"))
	if err != nil || len(systems) == 0 {
		t.Fatalf("no system models: %v", err)
	}
	for _, path := range systems {
		name := strings.TrimSuffix(filepath.Base(path), ".xpdl")
		snap, err := st.Get(ctx, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkServedRollups(t, name, snap)
	}

	before, err := st.Get(ctx, "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	xeon := filepath.Join(dir, "cpu", "Intel_Xeon_E5_2630L.xpdl")
	orig, err := os.ReadFile(xeon)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(orig), `static_power="15"`, `static_power="17"`, 1)
	if edited == string(orig) {
		t.Fatal("static_power pattern not found in the fixture")
	}
	if err := os.WriteFile(xeon, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	st.InvalidateLoader()
	res, err := st.RefreshDetail(ctx, "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped || !res.Delta {
		t.Fatalf("bounded edit: swapped=%v delta=%v (reason %q), want a delta swap", res.Swapped, res.Delta, res.Reason)
	}
	after, err := st.Get(ctx, "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	oldW := checkServedRollups(t, "XScluster pre-edit", before)
	newW := checkServedRollups(t, "XScluster patched", after)
	if newW <= oldW {
		t.Fatalf("patched total %v W, pre-edit %v W: the edit raised static power", newW, oldW)
	}
	body, _ := json.Marshal(EvalRequest{Expr: "total_static_power()"})
	for _, bin := range []bool{false, true} {
		rec := doProto(t, srv, http.MethodPost, "/v1/models/XScluster/eval", body, bin)
		if rec.Code != http.StatusOK {
			t.Fatalf("eval (bin=%v): status %d", bin, rec.Code)
		}
		var got EvalResponse
		if bin {
			err = (&Client{}).decodeBinary(bytes.NewReader(rec.Body.Bytes()), "eval", ContentTypeBinary, &got, nil)
		} else {
			err = json.Unmarshal(rec.Body.Bytes(), &got)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.Num != newW {
			t.Fatalf("served total_static_power() (bin=%v) = %v, want the patched %v", bin, got.Num, newW)
		}
	}
}
