package resolve

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"xpdl/internal/repo"
	"xpdl/internal/xmlout"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden with the current resolver's output")

// Group fixtures for the composed-tree goldens. Each exercises one shape
// of group expansion; together with the shipped systems they pin the
// composed trees the resolver produces, member by member.
var goldenFixtures = []struct {
	name, root string
	files      map[string]string
}{
	// Nested groups: a quantity-group inside an unnamed member template
	// inside another quantity-group, with an in-line type reference.
	{"nested_groups", "chip", map[string]string{
		"Lane": `<core name="Lane" frequency="2" frequency_unit="GHz"/>`,
		"chip": `
<cpu id="chip">
  <group prefix="cl" quantity="3">
    <cache name="L2" size="256" unit="KB"/>
    <group prefix="lane" quantity="2">
      <core type="Lane"/>
      <group name="pair" quantity="2">
        <memory name="reg" size="1" unit="KB"/>
      </group>
    </group>
  </group>
</cpu>`,
	}},
	// A parameter-driven quantity, bound in the instance and used in a
	// meta-model's group, and a unit-carrying attribute bound per member.
	{"param_quantity", "tile0", map[string]string{
		"Tile": `
<cpu name="Tile">
  <param name="ntiles" type="integer"/>
  <param name="tfrq" type="frequency"/>
  <group prefix="t" quantity="ntiles">
    <core frequency="tfrq" frequency_unit="MHz"/>
  </group>
</cpu>`,
		"tile0": `
<cpu id="tile0" type="Tile">
  <param name="ntiles" value="5"/>
  <param name="tfrq" value="800"/>
</cpu>`,
	}},
	// Quantity 0 (an empty container, whose template is never
	// instantiated) beside quantity 1.
	{"quantity_0_1", "q", map[string]string{
		"q": `
<cpu id="q">
  <group prefix="none" quantity="0">
    <core frequency="undeclared_but_never_resolved"/>
  </group>
  <group prefix="one" quantity="1">
    <core frequency="1" frequency_unit="GHz"/>
  </group>
</cpu>`,
	}},
	// A group that carries params, consts, constraints and properties of
	// its own; members see the params and consts in scope. Its golden
	// records a known defect: expandChild drops the group's own
	// <constraints> and <properties>, so none appear in the composed
	// tree. Regenerate this golden with -update when that is fixed.
	{"group_decls", "g", map[string]string{
		"g": `
<cpu id="g">
  <group prefix="w" quantity="3" role="worker">
    <param name="wf" type="frequency" value="1200" unit="MHz"/>
    <param name="mode" range="1, 2" value="2"/>
    <const name="wl2" type="msize" value="512" unit="KB"/>
    <constraints>
      <constraint expr="mode &lt;= 2"/>
    </constraints>
    <properties>
      <property name="vendor" value="acme"/>
    </properties>
    <core frequency="wf"/>
    <cache name="L2" size="wl2"/>
  </group>
</cpu>`,
	}},
	// Interconnect endpoints that name member ids of sibling groups.
	{"member_endpoints", "board", map[string]string{
		"board": `
<system id="board">
  <group prefix="n" quantity="3">
    <cpu/>
  </group>
  <group prefix="g" quantity="2">
    <device/>
  </group>
  <interconnects>
    <interconnect id="l0" head="n0" tail="g1"/>
    <interconnect id="l1" head="n2" tail="g0"/>
  </interconnects>
</system>`,
	}},
}

// goldenSystems are the shipped system models pinned alongside. A
// hashed system's golden is the sha256 of its composed tree rather than
// the text: XScluster's tree is 4 MB of group members whose every shape
// the smaller goldens already show.
var goldenSystems = []struct {
	name   string
	hashed bool
}{
	{"XScluster", true},
	{"liu_gpu_server", false},
	{"myriad_server", false},
	{"myriad_standalone", false},
}

// TestComposedTreeGoldens pins the composed tree of every shipped system
// and every group fixture: the indented Tree dump followed by the XML
// rendering. Regenerate with `go test ./internal/resolve -run Golden -update`.
func TestComposedTreeGoldens(t *testing.T) {
	models := modelsRepo(t)
	for _, sys := range goldenSystems {
		t.Run(sys.name, func(t *testing.T) { checkGolden(t, sys.name, models, sys.name, sys.hashed) })
	}
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) { checkGolden(t, fx.name, newRepo(t, fx.files), fx.root, false) })
	}
}

func checkGolden(t *testing.T, name string, rp *repo.Repository, root string, hashed bool) {
	t.Helper()
	out, err := New(rp).ResolveSystem(root)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Tree() + "---- xml ----\n" + xmlout.String(out)
	path := filepath.Join("testdata", name+".golden")
	if hashed {
		got = fmt.Sprintf("%x\n", sha256.Sum256([]byte(got)))
		path += ".sha256"
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("%s: composed tree differs from %s (%d vs %d bytes)", name, path, len(got), len(want))
	}
}

// TestGroupMemberErrorParity pins the exact error a failing group
// reports: the first member's, with member 0's id where the failing
// component is the member itself.
func TestGroupMemberErrorParity(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
		violation       bool
	}{
		{"range", `
<cpu id="r">
  <group prefix="m" quantity="4">
    <param name="mode" range="1, 2" value="3"/>
    <core/>
  </group>
</cpu>`, "resolve: r.xpdl:3:3: m0: parameter mode=3 outside legal range [1 2]", true},
		{"constraint", `
<cpu id="r">
  <group prefix="m" quantity="4">
    <param name="lanes" value="8"/>
    <core>
      <constraints><constraint expr="lanes &lt; 4"/></constraints>
    </core>
  </group>
</cpu>`, "resolve: r.xpdl:5:5: <core>: constraint violated: lanes < 4", true},
		{"unbound", `
<cpu id="r">
  <group prefix="m" quantity="4">
    <param name="f" type="frequency"/>
    <core frequency="f" frequency_unit="MHz"/>
  </group>
</cpu>`, `resolve: r.xpdl:5:5: <core>: attribute frequency references unbound parameter "f"`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(newRepo(t, map[string]string{"r": tc.src})).ResolveSystem("r")
			re, ok := err.(*Error)
			if !ok {
				t.Fatalf("err = %v, want *Error", err)
			}
			if re.Error() != tc.want || re.Violation != tc.violation {
				t.Fatalf("err = %q (violation %v), want %q (violation %v)", re.Error(), re.Violation, tc.want, tc.violation)
			}
		})
	}
}
