package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/delta"
	"xpdl/internal/model"
	"xpdl/internal/parser"
	"xpdl/internal/resolve"
	"xpdl/internal/xmlout"
)

// Differential delta ≡ full battery: a store whose loader refreshes
// through the delta patch path must be observably indistinguishable —
// byte-for-byte, on every /v1 endpoint, in both wire protocols — from
// a store that always re-runs the full pipeline over the same mutated
// descriptor files. The mutation suite covers every class the delta
// analysis must either patch (attribute edits) or refuse (structural
// edits), so both the patch path and the fallback path are exercised
// and their metrics asserted.

// copyModelsTo clones the repository's models/ fixture into dst so
// mutations never touch the checked-in corpus.
func copyModelsTo(tb testing.TB, dst string) {
	tb.Helper()
	src := modelsDir(tb)
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

func copyModels(tb testing.TB) string {
	tb.Helper()
	dst := tb.TempDir()
	copyModelsTo(tb, dst)
	return dst
}

// fullOnly hides a loader's LoadDelta method, so the store's
// DeltaLoader type assertion fails and every refresh runs the classic
// full-resolve path — the oracle the delta store is compared against.
type fullOnly struct{ Loader }

// newDeltaPair boots two full server stacks over the same model
// directory: one refreshing through the delta path, one through full
// resolves only.
func newDeltaPair(tb testing.TB, dir string) (deltaSrv, oracleSrv *Server, deltaStore, oracleStore *Store) {
	tb.Helper()
	mk := func(oracle bool) (*Server, *Store) {
		loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
		if err != nil {
			tb.Fatal(err)
		}
		var l Loader = loader
		if oracle {
			l = fullOnly{loader}
		}
		st := NewStore(l, 0)
		return NewServer(Config{Store: st, AllowRefresh: true}), st
	}
	deltaSrv, deltaStore = mk(false)
	oracleSrv, oracleStore = mk(true)
	return
}

// parseDescriptor parses one descriptor file from the mutated corpus.
func parseDescriptor(tb testing.TB, path string) *model.Component {
	tb.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	c, _, err := parser.New().ParseFile(path, src)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// modelInfoOf fetches and decodes /v1/models/{m}.
func modelInfoOf(tb testing.TB, srv *Server, m string) ModelInfo {
	tb.Helper()
	rec := doProto(tb, srv, http.MethodGet, "/v1/models/"+m, nil, false)
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET /v1/models/%s: status %d: %s", m, rec.Code, rec.Body.String())
	}
	var info ModelInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		tb.Fatal(err)
	}
	return info
}

// refreshBoth refreshes one model on both servers and checks the
// verdicts agree (same status, same swapped flag). It reports whether
// a swap happened and whether the delta server answered via the patch
// path.
func refreshBoth(tb testing.TB, dSrv, oSrv *Server, m string) (swapped, patched bool) {
	tb.Helper()
	target := "/v1/models/" + m + "/refresh"
	dr := doProto(tb, dSrv, http.MethodPost, target, nil, false)
	or := doProto(tb, oSrv, http.MethodPost, target, nil, false)
	if dr.Code != or.Code {
		tb.Fatalf("refresh %s: delta status %d, oracle status %d: %s / %s",
			m, dr.Code, or.Code, dr.Body.String(), or.Body.String())
	}
	if dr.Code != http.StatusOK {
		return false, false
	}
	var dres, ores RefreshResponse
	if err := json.Unmarshal(dr.Body.Bytes(), &dres); err != nil {
		tb.Fatal(err)
	}
	if err := json.Unmarshal(or.Body.Bytes(), &ores); err != nil {
		tb.Fatal(err)
	}
	if dres.Swapped != ores.Swapped {
		tb.Fatalf("refresh %s: delta swapped=%v, oracle swapped=%v", m, dres.Swapped, ores.Swapped)
	}
	return dres.Swapped, dres.Delta
}

// deltaEndpoints is the answer sweep compared between the two stacks:
// every data-bearing /v1 endpoint family (exports, summaries, element
// lookups, indexed and positional selects, evals, batches).
func deltaEndpoints(m string) []struct {
	method, target string
	body           []byte
} {
	base := "/v1/models/" + m
	eval, _ := json.Marshal(EvalRequest{Expr: "num_cores()"})
	batch, _ := json.Marshal(BatchRequest{Ops: []BatchOp{
		{Op: "select", Selector: "//core", Limit: 4},
		{Op: "eval", Expr: "num_cores()"},
	}})
	return []struct {
		method, target string
		body           []byte
	}{
		{http.MethodGet, base + "/summary", nil},
		{http.MethodGet, base + "/tree", nil},
		{http.MethodGet, base + "/json", nil},
		{http.MethodGet, base + "/element?ident=" + m, nil},
		{http.MethodGet, base + "/select?q=//core", nil},
		{http.MethodGet, base + "/select?q=//core[1]", nil},
		{http.MethodGet, base + "/select?q=//*&limit=16", nil},
		{http.MethodGet, base + "/select?q=//cache", nil},
		{http.MethodPost, base + "/eval", eval},
		{http.MethodPost, base + "/batch", batch},
	}
}

// assertSameAnswers compares the full endpoint sweep for one model
// between the delta stack and the oracle stack, in both protocols,
// byte for byte. Fingerprints must agree too (generations and load
// times legitimately differ).
func assertSameAnswers(tb testing.TB, dSrv, oSrv *Server, m, ctxLabel string) {
	tb.Helper()
	di, oi := modelInfoOf(tb, dSrv, m), modelInfoOf(tb, oSrv, m)
	if di.Fingerprint != oi.Fingerprint {
		tb.Fatalf("%s: %s: delta fingerprint %s, oracle fingerprint %s",
			ctxLabel, m, di.Fingerprint, oi.Fingerprint)
	}
	if di.Nodes != oi.Nodes {
		tb.Fatalf("%s: %s: delta nodes %d, oracle nodes %d", ctxLabel, m, di.Nodes, oi.Nodes)
	}
	for _, ep := range deltaEndpoints(m) {
		for _, bin := range []bool{false, true} {
			dr := doProto(tb, dSrv, ep.method, ep.target, ep.body, bin)
			or := doProto(tb, oSrv, ep.method, ep.target, ep.body, bin)
			if dr.Code != or.Code {
				tb.Fatalf("%s: %s %s (bin=%v): delta status %d, oracle status %d",
					ctxLabel, ep.method, ep.target, bin, dr.Code, or.Code)
			}
			if !bytes.Equal(dr.Body.Bytes(), or.Body.Bytes()) {
				tb.Fatalf("%s: %s %s (bin=%v): answers differ\ndelta:\n%s\noracle:\n%s",
					ctxLabel, ep.method, ep.target, bin, dr.Body.String(), or.Body.String())
			}
		}
	}
}

// mutationTargets names the descriptor files the differential battery
// mutates: leaf meta-types shared by systems (their attribute edits
// must ride the patch path) and root system descriptors (whose
// structural edits must fall back).
var mutationTargets = []string{
	"cpu/Intel_Xeon_E5_2630L.xpdl",
	"cpu/Movidius_Myriad1.xpdl",
	"system/XScluster.xpdl",
	"system/myriad_standalone.xpdl",
}

func TestDeltaFullParity(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus battery is not short")
	}
	dir := copyModels(t)
	dSrv, oSrv, _, _ := newDeltaPair(t, dir)

	// Baseline: both stacks resolve the whole corpus identically.
	for _, m := range parityModels {
		assertSameAnswers(t, dSrv, oSrv, m, "baseline")
	}

	patchedBefore := mDeltaPatched.Value()
	fallbackReasons := []string{"structural", "params", "override", "unbounded", "config", "state", "error"}
	fallbacksBefore := int64(0)
	for _, r := range fallbackReasons {
		fallbacksBefore += deltaFallbacks(r).Value()
	}

	var sawPatched, sawSwap bool
	for _, rel := range mutationTargets {
		path := filepath.Join(dir, rel)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		muts := delta.Mutations(parseDescriptor(t, path))
		if len(muts) == 0 {
			t.Fatalf("%s: mutation suite is empty", rel)
		}
		for _, mut := range muts {
			label := rel + ":" + mut.Name
			if err := os.WriteFile(path, []byte(xmlout.String(mut.Comp)), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, m := range parityModels {
				swapped, patched := refreshBoth(t, dSrv, oSrv, m)
				sawSwap = sawSwap || swapped
				sawPatched = sawPatched || patched
				assertSameAnswers(t, dSrv, oSrv, m, label)
			}
			// Restore and converge both stacks back to the baseline.
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, m := range parityModels {
				refreshBoth(t, dSrv, oSrv, m)
				assertSameAnswers(t, dSrv, oSrv, m, label+":restored")
			}
		}
	}
	if !sawSwap {
		t.Fatal("no mutation swapped a snapshot")
	}
	if !sawPatched {
		t.Fatal("no mutation rode the delta patch path")
	}
	if got := mDeltaPatched.Value() - patchedBefore; got == 0 {
		t.Fatal("xpdl_delta_patched_total did not move")
	}
	fallbacksAfter := int64(0)
	for _, r := range fallbackReasons {
		fallbacksAfter += deltaFallbacks(r).Value()
	}
	if fallbacksAfter == fallbacksBefore {
		t.Fatal("no delta fallback was exercised")
	}
}

// TestDeltaRefreshNoOp pins the bugfix: a revalidation cycle whose
// descriptor closure is unchanged must be a true no-op — same snapshot
// pointer, no republish, no index or pre-serialization rebuild, no
// watch event, and no movement on the swap/patch counters.
func TestDeltaRefreshNoOp(t *testing.T) {
	dir := copyModels(t)
	loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(loader, 0)
	ctx := context.Background()
	before, err := st.Get(ctx, "myriad_standalone")
	if err != nil {
		t.Fatal(err)
	}
	evsBefore, _ := st.WatchEvents("myriad_standalone", 0)
	swapsBefore := mStoreSwaps.Value()
	patchedBefore := mDeltaPatched.Value()
	unchangedBefore := mDeltaUnchanged.Value()

	for i := 0; i < 3; i++ {
		st.InvalidateLoader() // what the refresh handler and revalidator do
		res, err := st.RefreshDetail(ctx, "myriad_standalone")
		if err != nil {
			t.Fatal(err)
		}
		if res.Swapped || !res.Unchanged {
			t.Fatalf("cycle %d: swapped=%v unchanged=%v, want a no-op", i, res.Swapped, res.Unchanged)
		}
	}

	after, err := st.Get(ctx, "myriad_standalone")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("unchanged revalidation republished a new snapshot")
	}
	if got := mStoreSwaps.Value() - swapsBefore; got != 0 {
		t.Fatalf("swap counter moved by %d on unchanged cycles", got)
	}
	if got := mDeltaPatched.Value() - patchedBefore; got != 0 {
		t.Fatalf("patch counter moved by %d on unchanged cycles", got)
	}
	if got := mDeltaUnchanged.Value() - unchangedBefore; got != 3 {
		t.Fatalf("unchanged counter moved by %d, want 3", got)
	}
	evsAfter, _ := st.WatchEvents("myriad_standalone", 0)
	if len(evsAfter) != len(evsBefore) {
		t.Fatalf("unchanged revalidation published %d watch events", len(evsAfter)-len(evsBefore))
	}
}

// TestDeltaPatchedRefreshDetail drives one bounded edit end to end at
// the store level and checks the RefreshResult taxonomy plus the
// pre-serialization and index reuse the patch path exists for.
func TestDeltaPatchedRefreshDetail(t *testing.T) {
	dir := copyModels(t)
	loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(loader, 0)
	ctx := context.Background()
	before, err := st.Get(ctx, "XScluster")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cpu", "Intel_Xeon_E5_2630L.xpdl")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(orig), `static_power="15"`, `static_power="17"`, 1)
	if mutated == string(orig) {
		t.Fatal("static_power pattern not found in the fixture")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	st.InvalidateLoader()
	reusedBefore := mPreserReused.Value()
	res, err := st.RefreshDetail(ctx, "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped || !res.Delta {
		t.Fatalf("bounded edit: swapped=%v delta=%v (reason %q), want a delta swap", res.Swapped, res.Delta, res.Reason)
	}
	if len(res.Changed) == 0 || res.Changed[0] != "Intel_Xeon_E5_2630L" {
		t.Fatalf("changed = %v, want the edited descriptor", res.Changed)
	}
	after, err := st.Get(ctx, "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	if after == before || after.Fingerprint == before.Fingerprint {
		t.Fatal("delta swap did not publish a new snapshot")
	}
	if after.Gen <= before.Gen {
		t.Fatalf("generation did not advance: %d -> %d", before.Gen, after.Gen)
	}
	// Reuse implies query.AdoptIndexes accepted the patched tree:
	// preparePatched only carries answers over after a successful
	// structural adoption.
	if mPreserReused.Value() == reusedBefore {
		t.Fatal("patched snapshot reused no pre-serialized answers")
	}
	// The synthesized rollup must reflect the edit: static_power is a
	// rollup source, so the patch path re-ran Annotate.
	sum := summaryOf(after)
	old := summaryOf(before)
	if sum.StaticPowerW == old.StaticPowerW {
		t.Fatalf("static power rollup unchanged after patch: %v", sum.StaticPowerW)
	}

	// A structural mutation must fall back — and be counted.
	structural := strings.Replace(string(orig), `<cache name="L3" size="15" unit="MiB" />`, ``, 1)
	if structural == string(orig) {
		t.Fatal("L3 cache pattern not found in the fixture")
	}
	if err := os.WriteFile(path, []byte(structural), 0o644); err != nil {
		t.Fatal(err)
	}
	st.InvalidateLoader()
	fbBefore := deltaFallbacks("structural").Value()
	res, err = st.RefreshDetail(ctx, "XScluster")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped || res.Delta {
		t.Fatalf("structural edit: swapped=%v delta=%v, want a full-resolve swap", res.Swapped, res.Delta)
	}
	if res.Reason != "structural" {
		t.Fatalf("structural edit: fallback reason %q", res.Reason)
	}
	if deltaFallbacks("structural").Value() != fbBefore+1 {
		t.Fatal("structural fallback was not counted")
	}
}

// TestDeltaPatchedExportParity pins the lazily rendered answers across
// a delta patch: /json and /tree of the patched XScluster generation
// are byte-identical, in both protocols, to a fresh full-resolve store
// over the same corpus state. The pre-edit /json is rendered first, so
// a patched /json equal to it would mean the export was carried across
// the patch.
func TestDeltaPatchedExportParity(t *testing.T) {
	const m = "XScluster"
	base := "/v1/models/" + m
	dir := copyModels(t)
	// boot starts a store and server over dir. The repository parses the
	// corpus when the loader is built, so a store booted after the edit
	// resolves the edited state from scratch.
	boot := func() (*Server, *Store) {
		loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(loader, 0)
		return NewServer(Config{Store: st}), st
	}
	dSrv, dSt := boot()
	before := map[bool][]byte{}
	for _, bin := range []bool{false, true} {
		rec := doProto(t, dSrv, http.MethodGet, base+"/json", nil, bin)
		if rec.Code != http.StatusOK {
			t.Fatalf("pre-edit /json (bin=%v): status %d", bin, rec.Code)
		}
		before[bin] = rec.Body.Bytes()
	}

	path := filepath.Join(dir, "cpu", "Intel_Xeon_E5_2630L.xpdl")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(orig), `static_power="15"`, `static_power="17"`, 1)
	if mutated == string(orig) {
		t.Fatal("static_power pattern not found in the fixture")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	dSt.InvalidateLoader()
	res, err := dSt.RefreshDetail(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Swapped || !res.Delta {
		t.Fatalf("bounded edit: swapped=%v delta=%v (reason %q), want a delta swap", res.Swapped, res.Delta, res.Reason)
	}

	oSrv, _ := boot()
	for _, ep := range []string{"/tree", "/json"} {
		for _, bin := range []bool{false, true} {
			dr := doProto(t, dSrv, http.MethodGet, base+ep, nil, bin)
			or := doProto(t, oSrv, http.MethodGet, base+ep, nil, bin)
			if dr.Code != http.StatusOK || or.Code != http.StatusOK {
				t.Fatalf("%s (bin=%v): delta status %d, oracle status %d", ep, bin, dr.Code, or.Code)
			}
			if got := dr.Header().Get("X-Xpdl-Generation"); got != strconv.FormatUint(res.Gen, 10) {
				t.Fatalf("%s (bin=%v): answered by generation %s, want %d", ep, bin, got, res.Gen)
			}
			if !bytes.Equal(dr.Body.Bytes(), or.Body.Bytes()) {
				t.Fatalf("%s (bin=%v): patched answer (%d bytes) differs from full resolve (%d bytes)",
					ep, bin, dr.Body.Len(), or.Body.Len())
			}
			if ep == "/json" && bytes.Equal(dr.Body.Bytes(), before[bin]) {
				t.Fatalf("/json (bin=%v): patched generation replays the pre-edit export", bin)
			}
		}
	}
}

// fuzzAffected scopes each fuzz iteration to the systems whose
// descriptor closure contains the mutated file — refreshing the rest
// would only re-prove "unchanged" at full-resolve cost.
var fuzzAffected = map[string][]string{
	"cpu/Intel_Xeon_E5_2630L.xpdl":  {"XScluster", "liu_gpu_server"},
	"cpu/Movidius_Myriad1.xpdl":     {"myriad_server", "myriad_standalone"},
	"system/XScluster.xpdl":         {"XScluster"},
	"system/myriad_standalone.xpdl": {"myriad_standalone"},
}

// fuzzState is the shared fixture behind FuzzDeltaResolve: fuzz
// workers run iterations sequentially in-process, so one mutated
// corpus plus one delta/oracle loader pair per process suffices, with
// a mutex serializing iterations. The corpus lives in an os.MkdirTemp
// directory (not t.TempDir, whose cleanup runs per iteration). The
// fuzz works at the loader level — LoadDelta against the last snapshot
// versus a fresh full Load — so each iteration pays for resolution,
// not for the store's pre-serialization of large JSON exports.
type fuzzState struct {
	mu      sync.Mutex
	dir     string
	dLoader *ToolchainLoader
	oLoader *ToolchainLoader
	snaps   map[string]*Snapshot // delta side: last accepted snapshot per model
	orig    map[string][]byte
}

var (
	fuzzOnce  sync.Once
	fuzzShare *fuzzState
	fuzzErr   error
)

func fuzzSetup(tb testing.TB) *fuzzState {
	fuzzOnce.Do(func() {
		fail := func(err error) { fuzzErr = err }
		dir, err := os.MkdirTemp("", "xpdl-delta-fuzz-*")
		if err != nil {
			fail(err)
			return
		}
		copyModelsTo(tb, dir)
		dl, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
		if err != nil {
			fail(err)
			return
		}
		ol, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
		if err != nil {
			fail(err)
			return
		}
		st := &fuzzState{dir: dir, dLoader: dl, oLoader: ol,
			snaps: map[string]*Snapshot{}, orig: map[string][]byte{}}
		ctx := context.Background()
		for _, m := range parityModels {
			snap, err := dl.Load(ctx, m)
			if err != nil {
				fail(err)
				return
			}
			st.snaps[m] = snap
		}
		for _, rel := range mutationTargets {
			data, err := os.ReadFile(filepath.Join(dir, rel))
			if err != nil {
				fail(err)
				return
			}
			st.orig[rel] = data
		}
		fuzzShare = st
	})
	if fuzzErr != nil {
		tb.Fatal(fuzzErr)
	}
	return fuzzShare
}

// FuzzDeltaResolve feeds random single-descriptor mutations through
// the delta refresh path with a full resolve as oracle: after every
// mutation the delta loader's verdict must match a fresh full load —
// same fingerprint, node count and summary — for every system whose
// closure contains the mutated descriptor. The seed corpus is the
// deterministic mutation suite; the fuzzer then varies the target
// descriptor, the mutation class and the value written into edited
// attributes.
func FuzzDeltaResolve(f *testing.F) {
	for ti := range mutationTargets {
		for mi := 0; mi < 8; mi++ {
			f.Add(uint8(ti), uint8(mi), uint32(0))
		}
	}
	f.Add(uint8(0), uint8(255), uint32(12345)) // fuzz-valued attribute edit

	f.Fuzz(func(t *testing.T, targetIdx, mutIdx uint8, val uint32) {
		st := fuzzSetup(t)
		st.mu.Lock()
		defer st.mu.Unlock()
		rel := mutationTargets[int(targetIdx)%len(mutationTargets)]
		path := filepath.Join(st.dir, rel)
		orig := st.orig[rel]
		src, _, err := parser.New().ParseFile(path, orig)
		if err != nil {
			t.Fatal(err)
		}
		var comp *model.Component
		if val != 0 {
			comp = fuzzValueEdit(src, val)
		}
		if comp == nil {
			muts := delta.Mutations(src)
			if len(muts) == 0 {
				t.Skip("descriptor yields no mutations")
			}
			comp = muts[int(mutIdx)%len(muts)].Comp
		}
		if err := os.WriteFile(path, []byte(xmlout.String(comp)), 0o644); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			verifyDeltaAgainstFull(t, st, rel)
		}()
		verifyDeltaAgainstFull(t, st, rel)
	})
}

// verifyDeltaAgainstFull refreshes every affected model through
// LoadDelta and through a full Load, and requires identical results.
// Errors must agree too (a mutation may render a model unresolvable);
// when both sides fail, the delta side keeps its previous snapshot,
// exactly like the store would.
func verifyDeltaAgainstFull(t *testing.T, st *fuzzState, rel string) {
	t.Helper()
	ctx := context.Background()
	st.dLoader.Invalidate()
	st.oLoader.Invalidate()
	for _, m := range fuzzAffected[rel] {
		res, derr := st.dLoader.LoadDelta(ctx, st.snaps[m])
		osnap, oerr := st.oLoader.Load(ctx, m)
		if (derr == nil) != (oerr == nil) {
			t.Fatalf("%s: delta err=%v, oracle err=%v", m, derr, oerr)
		}
		if derr != nil {
			continue // both failed; the resident snapshot persists
		}
		ds := res.Snap
		st.snaps[m] = ds
		if ds.Fingerprint != osnap.Fingerprint {
			t.Fatalf("%s: delta fingerprint %s (outcome %d, reason %q), oracle %s",
				m, ds.Fingerprint, res.Outcome, res.Reason, osnap.Fingerprint)
		}
		if ds.Nodes() != osnap.Nodes() {
			t.Fatalf("%s: delta %d nodes, oracle %d", m, ds.Nodes(), osnap.Nodes())
		}
		dsum, osum := summaryOf(ds), summaryOf(osnap)
		if !bytes.Equal(marshalIndented(dsum), marshalIndented(osum)) {
			t.Fatalf("%s: summaries differ after refresh\ndelta: %s\noracle: %s",
				m, marshalIndented(dsum), marshalIndented(osum))
		}
	}
}

// fuzzValueEdit clones the descriptor with its first numeric root
// attribute set to the fuzzer's value, or nil when there is none.
func fuzzValueEdit(c *model.Component, val uint32) *model.Component {
	keys := make([]string, 0, len(c.Attrs))
	for k := range c.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := c.Attrs[k]
		if a.Unknown || resolve.IdentLike(a.Raw) {
			continue
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(a.Raw), 64); err != nil {
			continue
		}
		m := c.Clone()
		na := a
		na.Raw = fmt.Sprintf("%d", val%1_000_000)
		na.HasQuantity = false
		m.SetAttr(k, na)
		return m
	}
	return nil
}
