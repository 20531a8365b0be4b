package query

import (
	"slices"
	"testing"

	"xpdl/internal/delta"
	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// refBuildSelIndex is the map-append index builder that the sized
// two-pass buildSelIndex replaced, kept as the reference it must
// reproduce posting for posting and path for path.
func refBuildSelIndex(s *Session) *selIndex {
	idx := &selIndex{
		byKind:     map[string][]int32{},
		byKindName: map[kindName][]int32{},
		byID:       map[string][]int32{},
		paths:      make([]string, len(s.m.Nodes)),
	}
	for i := range s.m.Nodes {
		n := &s.m.Nodes[i]
		pi := int32(i)
		idx.byKind[n.Kind] = append(idx.byKind[n.Kind], pi)
		if n.Name != "" {
			k := kindName{n.Kind, n.Name}
			idx.byKindName[k] = append(idx.byKindName[k], pi)
		}
		if n.ID != "" {
			idx.byID[n.ID] = append(idx.byID[n.ID], pi)
		}
		ident := n.Ident()
		switch {
		case n.Parent < 0 || n.Parent >= pi:
			idx.paths[i] = ident
		case ident == "":
			idx.paths[i] = idx.paths[n.Parent]
		case idx.paths[n.Parent] == "":
			idx.paths[i] = ident
		default:
			idx.paths[i] = idx.paths[n.Parent] + "/" + ident
		}
	}
	return idx
}

// samePostings reports the first key whose posting list differs
// between got and want, in contents or order, or that only one has.
func samePostings[K comparable](got, want map[K][]int32) (K, bool) {
	for k, w := range want {
		if g, ok := got[k]; !ok || !slices.Equal(g, w) {
			return k, false
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return k, false
		}
	}
	var zero K
	return zero, true
}

// checkPostingsCapped fails unless every posting list has len == cap,
// so an append to one list reallocates instead of writing into the
// next run of the shared slab.
func checkPostingsCapped[K comparable](t *testing.T, label string, m map[K][]int32) {
	t.Helper()
	for k, p := range m {
		if len(p) != cap(p) {
			t.Fatalf("%s: postings of %v: len %d cap %d", label, k, len(p), cap(p))
		}
		if grown := append(p, -1); &grown[0] == &p[0] {
			t.Fatalf("%s: postings of %v: append grew in place", label, k)
		}
	}
}

// checkIndexMatchesRef compares buildSelIndex with the reference over
// one session's model and checks the slab layout.
func checkIndexMatchesRef(t *testing.T, label string, s *Session) {
	t.Helper()
	got, want := buildSelIndex(s), refBuildSelIndex(s)
	compare := func(stage string) {
		t.Helper()
		if k, ok := samePostings(got.byKind, want.byKind); !ok {
			t.Fatalf("%s: %s: byKind[%q] %v, reference %v", label, stage, k, got.byKind[k], want.byKind[k])
		}
		if k, ok := samePostings(got.byKindName, want.byKindName); !ok {
			t.Fatalf("%s: %s: byKindName[%v] %v, reference %v", label, stage, k, got.byKindName[k], want.byKindName[k])
		}
		if k, ok := samePostings(got.byID, want.byID); !ok {
			t.Fatalf("%s: %s: byID[%q] %v, reference %v", label, stage, k, got.byID[k], want.byID[k])
		}
		if !slices.Equal(got.paths, want.paths) {
			for i := range want.paths {
				if i >= len(got.paths) || got.paths[i] != want.paths[i] {
					t.Fatalf("%s: %s: node %d path differs from the reference %q", label, stage, i, want.paths[i])
				}
			}
			t.Fatalf("%s: %s: %d paths, reference %d", label, stage, len(got.paths), len(want.paths))
		}
	}
	compare("built")
	checkPostingsCapped(t, label+" byKind", got.byKind)
	checkPostingsCapped(t, label+" byKindName", got.byKindName)
	checkPostingsCapped(t, label+" byID", got.byID)
	// Had an append above written past its run, a neighbouring list
	// would now differ from the reference.
	compare("after appends")
}

func TestSelIndexMatchesReference(t *testing.T) {
	for _, sys := range []string{"XScluster", "liu_gpu_server", "myriad_server", "myriad_standalone"} {
		checkIndexMatchesRef(t, sys, bundledSession(t, sys))
	}
}

func TestSelIndexMatchesReferencePatched(t *testing.T) {
	xs := bundledSession(t, "XScluster")
	plan := delta.Plan{
		Patches: []delta.Patch{{
			Type: "Intel_Xeon_E5_2630L", Attr: "static_power", Old: "15 W",
			New: model.Attr{Raw: "17", Quantity: units.MustParse("17", "W"), HasQuantity: true},
		}},
		NeedAnnotate: true,
	}
	patched, n := delta.ApplyRT(xs.Model(), "XScluster", plan, nil)
	if n == 0 {
		t.Fatal("Xeon plan patched nothing; the comparison proves nothing")
	}
	checkIndexMatchesRef(t, "XScluster patched", NewSession(patched))
}

// TestSelIndexPathCases covers the path shapes the bundled models may
// lack: a root without identifier, identifier-less inner nodes (which
// take their parent's path) and an empty model.
func TestSelIndexPathCases(t *testing.T) {
	sys := model.New("system")
	grp := model.New("group")
	cpu := model.New("cpu")
	cpu.ID = "c0"
	core := model.New("core")
	core.Name = "k"
	grp.Children = append(grp.Children, cpu)
	cpu.Children = append(cpu.Children, core, model.New("cache"))
	sys.Children = append(sys.Children, grp)
	s := NewSession(rtmodel.Build(sys))
	checkIndexMatchesRef(t, "anonymous", s)
	if got := buildSelIndex(s).paths; !slices.Equal(got, []string{"", "", "c0", "c0/k", "c0"}) {
		t.Fatalf("paths %q", got)
	}
	checkIndexMatchesRef(t, "empty", NewSession(&rtmodel.Model{}))
}
