package query

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/expr"
	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
)

// walkInstalled and walkHasKind are the tree walkers Session.Installed
// and Session.HasKind ran before they read the rollups: the reference
// the rollups are checked against.
func walkInstalled(s *Session, prefix string) bool {
	root := s.Root()
	if !root.Valid() {
		return false
	}
	found := false
	root.walk(func(x Elem) bool {
		if found {
			return false
		}
		if x.Kind() == "installed" || x.Kind() == "hostOS" {
			if strings.HasPrefix(x.TypeName(), prefix) || strings.HasPrefix(x.Ident(), prefix) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func walkHasKind(s *Session, kind string) bool {
	root := s.Root()
	if !root.Valid() {
		return false
	}
	found := false
	root.walk(func(x Elem) bool {
		if x.Kind() == kind {
			found = true
		}
		return !found
	})
	return found
}

func walkInstalledList(s *Session) []string {
	var out []string
	root := s.Root()
	if !root.Valid() {
		return nil
	}
	root.walk(func(x Elem) bool {
		if x.Kind() == "installed" || x.Kind() == "hostOS" {
			if t := x.TypeName(); t != "" {
				out = append(out, t)
			} else if id := x.Ident(); id != "" {
				out = append(out, id)
			}
		}
		return true
	})
	return out
}

// checkRollups asserts that every platform function answered through
// Session.Env equals the tree walker's answer: the totals, has_kind for
// every kind in the model plus an absent one, and installed for every
// prefix of every installed type and ident plus an absent one.
func checkRollups(t *testing.T, label string, s *Session) {
	t.Helper()
	env := s.Env(nil)
	call := func(name string, args ...expr.Value) expr.Value {
		t.Helper()
		v, err := env.Call(name, args)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		return v
	}
	root := s.Root()
	if got, want := call("num_cores").Num, float64(root.NumCores()); got != want {
		t.Errorf("%s: num_cores() = %v, walker %v", label, got, want)
	}
	if got, want := call("num_cuda_devices").Num, float64(root.NumCUDADevices()); got != want {
		t.Errorf("%s: num_cuda_devices() = %v, walker %v", label, got, want)
	}
	if got, want := call("total_static_power").Num, root.TotalStaticPower().Value; got != want {
		t.Errorf("%s: total_static_power() = %v, walker %v", label, got, want)
	}
	kinds := map[string]bool{"no_such_kind": true}
	prefixes := map[string]bool{"NO_SUCH_PACKAGE": true, "": true}
	root.walk(func(x Elem) bool {
		kinds[x.Kind()] = true
		if x.Kind() == "installed" || x.Kind() == "hostOS" {
			for _, name := range []string{x.TypeName(), x.Ident()} {
				for i := 1; i <= len(name); i++ {
					prefixes[name[:i]] = true
				}
			}
		}
		return true
	})
	for k := range kinds {
		if got, want := call("has_kind", expr.String(k)).Bool, walkHasKind(s, k); got != want {
			t.Errorf("%s: has_kind(%q) = %v, walker %v", label, k, got, want)
		}
	}
	for p := range prefixes {
		if got, want := call("installed", expr.String(p)).Bool, walkInstalled(s, p); got != want {
			t.Errorf("%s: installed(%q) = %v, walker %v", label, p, got, want)
		}
	}
	if got, want := strings.Join(s.InstalledList(), ","), strings.Join(walkInstalledList(s), ","); got != want {
		t.Errorf("%s: InstalledList() = %s, walker %s", label, got, want)
	}
}

// TestRollupsMatchWalker checks the per-session rollups against the
// tree walkers on the fixture, on every bundled system model, and on
// the edge cases of the walkers' pruning rules.
func TestRollupsMatchWalker(t *testing.T) {
	checkRollups(t, "fixture", newSession(t))

	_, file, _, _ := runtime.Caller(0)
	models := filepath.Join(filepath.Dir(file), "..", "..", "models")
	systems, err := filepath.Glob(filepath.Join(models, "system", "*.xpdl"))
	if err != nil || len(systems) == 0 {
		t.Fatalf("no system models found: %v", err)
	}
	tc, err := core.New(core.Options{SearchPaths: []string{models}})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range systems {
		name := strings.TrimSuffix(filepath.Base(path), ".xpdl")
		res, err := tc.Process(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRollups(t, name, NewSession(res.Runtime))
	}

	// Pruning edge cases: cores below a nested power domain are member
	// references, a CUDA device's nested devices are not counted again,
	// and a non-CUDA device's are.
	device := func(kind, pmType string, children ...*model.Component) *model.Component {
		d := model.New(kind)
		pm := model.New("programming_model")
		pm.SetAttr("type", model.Attr{Raw: pmType})
		d.Children = append([]*model.Component{pm}, children...)
		return d
	}
	sys := model.New("system")
	pd := model.New("power_domain")
	pd.Children = append(pd.Children, model.New("core"))
	cuda := device("device", "CUDA_6.0", device("gpu", "cuda"))
	plain := device("device", "OpenCL", device("gpu", "Cuda"))
	sys.Children = append(sys.Children, model.New("core"), pd, cuda, plain)
	s := NewSession(rtmodel.Build(sys))
	checkRollups(t, "pruning", s)
	if got := s.Totals(); got.Cores != 1 || got.CUDADevices != 2 {
		t.Fatalf("pruning: totals %+v, want 1 core and 2 CUDA devices", got)
	}
	// A power domain at the root still counts its own cores.
	pdRoot := model.New("power_domain")
	pdRoot.Children = append(pdRoot.Children, model.New("core"), model.New("core"))
	checkRollups(t, "power_domain root", NewSession(rtmodel.Build(pdRoot)))
}

// TestRollupsPerSession checks that a session built from a patched
// model recomputes its rollups even when it adopts its predecessor's
// selector indexes — the delta hot-swap path.
func TestRollupsPerSession(t *testing.T) {
	old := adoptSession("15")
	if got := old.Totals().StaticPower; got != 45 {
		t.Fatalf("pre-patch total %v W, want 45", got)
	}
	patched := adoptSession("17")
	if !patched.AdoptIndexes(old) {
		t.Fatal("same-shape adoption refused")
	}
	if got := patched.Totals().StaticPower; got != 51 {
		t.Fatalf("patched total %v W, want 51", got)
	}
	if got := old.Totals().StaticPower; got != 45 {
		t.Fatalf("pre-patch session now answers %v W, want 45", got)
	}
	checkRollups(t, "patched", patched)
}

// TestEmptyModelEnv checks that the platform functions answer zero on
// an empty model instead of walking a missing root.
func TestEmptyModelEnv(t *testing.T) {
	s := NewSession(&rtmodel.Model{})
	for _, src := range []string{"num_cores() == 0", "num_cuda_devices() == 0", "total_static_power() == 0", "!has_kind('cpu')", "!installed('')"} {
		ok, err := expr.EvalBool(src, s.Env(nil))
		if err != nil || !ok {
			t.Errorf("%s on an empty model: %v, %v", src, ok, err)
		}
	}
}
