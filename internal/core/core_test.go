package core

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xpdl/internal/analysis"
	"xpdl/internal/config"
	"xpdl/internal/model"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
)

// modelsDir locates the repository's models/ directory relative to this
// source file.
func modelsDir(t testing.TB) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("caller unknown")
	}
	return filepath.Join(filepath.Dir(file), "..", "..", "models")
}

func newToolchain(t testing.TB, opts Options) *Toolchain {
	t.Helper()
	opts.SearchPaths = append(opts.SearchPaths, modelsDir(t))
	tc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func TestProcessLiuGpuServer(t *testing.T) {
	tc := newToolchain(t, Options{RunMicrobenchmarks: true, Seed: 42})
	res, err := tc.Process("liu_gpu_server")
	if err != nil {
		t.Fatal(err)
	}
	sys := res.System
	if sys.ID != "liu_gpu_server" {
		t.Fatalf("system id = %q", sys.ID)
	}
	// 4 host cores (Listing 1) + 13*192 GPU cores.
	wantCores := 4 + 13*192
	if got := analysis.CountCores(sys); got != wantCores {
		t.Fatalf("cores = %d, want %d", got, wantCores)
	}
	// The instance-fixed Kepler configuration (32+32) resolved and
	// passed the constraint.
	gpu := sys.FindByID("gpu1")
	if gpu == nil {
		t.Fatal("gpu1 missing")
	}
	if p := gpu.Param("L1size"); p == nil || p.Value != "32" {
		t.Fatalf("L1size = %+v", p)
	}
	// Microbenchmarking filled the x86 table: no "?" energies remain on
	// inst elements.
	unknowns := 0
	sys.Walk(func(c *model.Component) bool {
		if c.Kind == "inst" {
			if a, ok := c.Attr("energy"); ok && a.Unknown {
				unknowns++
			}
		}
		return true
	})
	if unknowns != 0 {
		t.Fatalf("%d instructions still unknown", unknowns)
	}
	if res.Microbench == nil || len(res.Microbench.PerInst) == 0 {
		t.Fatal("no microbenchmark report")
	}
	if res.Microbench.MaxRelErr() > 0.10 {
		t.Fatalf("bootstrap error %.2f%%", res.Microbench.MaxRelErr()*100)
	}
	// Synthesized attributes are present.
	if res.Synthesized == 0 {
		t.Fatal("no synthesized attributes")
	}
	q, ok := sys.QuantityAttr("num_cores")
	if !ok || int(q.Value) != wantCores {
		t.Fatalf("num_cores attr = %+v", q)
	}
	// Runtime model built and queryable.
	s := query.NewSession(res.Runtime)
	if s.Root().NumCores() != wantCores {
		t.Fatal("runtime core count mismatch")
	}
	if !s.Installed("CUBLAS") || !s.Installed("StarPU") {
		t.Fatal("installed software lost")
	}
	if s.Root().NumCUDADevices() != 1 {
		t.Fatalf("cuda devices = %d", s.Root().NumCUDADevices())
	}
	// The power meter property survived to runtime.
	if _, ok := s.Root().Property("ExternalPowerMeter"); !ok {
		t.Fatal("ExternalPowerMeter property lost")
	}
}

func TestProcessXSCluster(t *testing.T) {
	tc := newToolchain(t, Options{})
	res, err := tc.Process("XScluster")
	if err != nil {
		t.Fatal(err)
	}
	sys := res.System
	// 4 nodes.
	if got := sys.CountKind("node"); got != 4 {
		t.Fatalf("nodes = %d", got)
	}
	// Per node: 2 CPUs x 4 cores + K20c (13*192) + K40c (15*192).
	wantCores := 4 * (8 + 13*192 + 15*192)
	if got := analysis.CountCores(sys); got != wantCores {
		t.Fatalf("cores = %d, want %d", got, wantCores)
	}
	// 4 memory modules per node.
	if got := sys.CountKind("memory"); got < 16 {
		t.Fatalf("memories = %d", got)
	}
	// Ring interconnects resolved; endpoints exist.
	if got := sys.CountKind("interconnect"); got != 4*2+4 {
		t.Fatalf("interconnects = %d", got)
	}
	if res.Stats.Components < 20000 {
		t.Fatalf("components = %d, expected a large composed tree", res.Stats.Components)
	}
}

// TestProcessSharedMapsFrozen checks the sharing rule on the analyzed
// XScluster tree: an attribute map that two nodes hold is marked shared
// on both, so neither can write to it in place.
func TestProcessSharedMapsFrozen(t *testing.T) {
	for _, opts := range []Options{{}, {RunMicrobenchmarks: true, Seed: 42}} {
		res, err := newToolchain(t, opts).Process("XScluster")
		if err != nil {
			t.Fatal(err)
		}
		holders := map[uintptr][]*model.Component{}
		res.System.Walk(func(c *model.Component) bool {
			if c.Attrs != nil {
				p := uintptr(reflect.ValueOf(c.Attrs).UnsafePointer())
				holders[p] = append(holders[p], c)
			}
			return true
		})
		shared := 0
		for _, cs := range holders {
			if len(cs) < 2 {
				continue
			}
			shared++
			for _, c := range cs {
				if !c.Frozen() {
					t.Fatalf("microbench %v: %s holds a map shared by %d nodes but is not frozen", opts.RunMicrobenchmarks, c, len(cs))
				}
			}
		}
		if shared == 0 {
			t.Fatalf("microbench %v: no attribute map is shared between group members", opts.RunMicrobenchmarks)
		}
	}
}

func TestProcessMyriadServer(t *testing.T) {
	tc := newToolchain(t, Options{})
	res, err := tc.Process("myriad_server")
	if err != nil {
		t.Fatal(err)
	}
	sys := res.System
	// Host Xeon (4 cores) + Myriad1 (1 Leon + 8 SHAVEs).
	if got := analysis.CountCores(sys); got != 4+9 {
		t.Fatalf("cores = %d", got)
	}
	// 8 SHAVE power domains + main + CMX.
	if got := sys.CountKind("power_domain"); got != 10 {
		t.Fatalf("power domains = %d", got)
	}
	// Four host-board links.
	links := sys.ChildrenKind("interconnects")
	if len(links) != 1 || len(links[0].Children) != 4 {
		t.Fatalf("interconnects = %+v", links)
	}
}

func TestEmitAndReloadRuntime(t *testing.T) {
	tc := newToolchain(t, Options{RunMicrobenchmarks: true, Seed: 1})
	res, err := tc.Process("liu_gpu_server")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "liu.xrt")
	if err := tc.EmitRuntime(res, path); err != nil {
		t.Fatal(err)
	}
	m, err := rtmodel.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rtmodel.Equal(res.Runtime, m) {
		t.Fatal("runtime file round trip failed")
	}
	if err := tc.EmitRuntime(nil, path); err == nil {
		t.Fatal("nil result accepted")
	}
}

func TestProcessUnknownSystem(t *testing.T) {
	tc := newToolchain(t, Options{})
	if _, err := tc.Process("no_such_system"); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestFilterUnknownAttrs(t *testing.T) {
	// Without microbenchmarks, "?" energies are filtered from the
	// runtime model by default (they are useless at run time)...
	tc := newToolchain(t, Options{})
	res, err := tc.Process("liu_gpu_server")
	if err != nil {
		t.Fatal(err)
	}
	if res.Filtered == 0 {
		t.Fatal("expected some ? attributes to be filtered")
	}
	// ...but KeepUnknown retains them.
	tc2 := newToolchain(t, Options{KeepUnknown: true})
	res2, err := tc2.Process("liu_gpu_server")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Filtered != 0 {
		t.Fatal("KeepUnknown still filtered")
	}
	found := false
	for i := range res2.Runtime.Nodes {
		for _, a := range res2.Runtime.Nodes[i].Attrs {
			if a.Flags&rtmodel.FlagUnknown != 0 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no unknown attribute survived despite KeepUnknown")
	}
}

func TestModelZooAllRootsResolvable(t *testing.T) {
	// Every descriptor in models/ must parse; every system must
	// compose. This is the E1 model-zoo integration test.
	tc := newToolchain(t, Options{})
	idents := tc.Repo.Idents()
	if len(idents) < 25 {
		t.Fatalf("model zoo too small: %v", idents)
	}
	for _, sys := range []string{"liu_gpu_server", "myriad_server", "XScluster"} {
		found := false
		for _, id := range idents {
			if id == sys {
				found = true
			}
		}
		if !found {
			t.Errorf("system %s missing from zoo", sys)
		}
	}
}

func TestDowngradeReportedOnCluster(t *testing.T) {
	tc := newToolchain(t, Options{})
	res, err := tc.Process("XScluster")
	if err != nil {
		t.Fatal(err)
	}
	// The PCIe links in each node connect the cpu1 group (no bandwidth
	// cap declared) — no downgrade expected there. This test asserts
	// the analysis ran without spurious reports.
	for _, d := range res.Downgrades {
		if !strings.Contains(d.String(), "limited by") {
			t.Fatalf("malformed report %q", d.String())
		}
	}
}

func TestChannelCalibration(t *testing.T) {
	tc := newToolchain(t, Options{RunMicrobenchmarks: true, Seed: 5})
	res, err := tc.Process("liu_gpu_server")
	if err != nil {
		t.Fatal(err)
	}
	// pcie3's connection1 has two channels with "?" offsets.
	if len(res.Channels) != 2 {
		t.Fatalf("calibrated channels = %d: %+v", len(res.Channels), res.Channels)
	}
	for _, cc := range res.Channels {
		if cc.Result.TimeOffsetS <= 0 || cc.Result.EnergyOffJ <= 0 {
			t.Fatalf("degenerate calibration: %+v", cc)
		}
	}
	// No "?" channel attributes survive into the composed model.
	found := false
	res.System.Walk(func(c *model.Component) bool {
		if c.Kind == "channel" {
			for name, a := range c.Attrs {
				if a.Unknown {
					t.Errorf("channel attr %s still unknown", name)
				}
			}
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("no channels in composed model")
	}
	// And the filled values reach the runtime model with values.
	s := query.NewSession(res.Runtime)
	conn, ok := s.Find("connection1")
	if !ok {
		t.Fatal("connection1 missing")
	}
	up, ok := conn.FirstChild("channel")
	if !ok {
		t.Fatal("channel missing")
	}
	if _, ok := up.GetFloat("time_offset_per_message"); !ok {
		t.Fatal("derived offset missing from runtime model")
	}
}

func TestConfigDrivenProcessing(t *testing.T) {
	cfg, err := config.Parse("tool.xml", []byte(`
<xpdltool>
  <filter drop_unknown="true">
    <drop attr="replacement"/>
  </filter>
  <synthesize target="cache_bytes" source="size" agg="sum" kinds="cpu" unit_dim="size"/>
  <analysis downgrade_bandwidth="false"/>
</xpdltool>`))
	if err != nil {
		t.Fatal(err)
	}
	tc := newToolchain(t, Options{Config: &cfg})
	res, err := tc.Process("liu_gpu_server")
	if err != nil {
		t.Fatal(err)
	}
	// The tailored synthesized attribute is present on the CPU.
	cpu := res.System.FindByID("gpu_host")
	q, ok := cpu.QuantityAttr("cache_bytes")
	if !ok || q.Value <= 0 {
		t.Fatalf("cache_bytes = %+v (ok=%v)", q, ok)
	}
	// The default rules were replaced: no num_cores attr.
	if _, ok := res.System.QuantityAttr("num_cores"); ok {
		t.Fatal("default rules still applied")
	}
	// Bandwidth analysis disabled.
	if len(res.Downgrades) != 0 {
		t.Fatalf("downgrades = %v", res.Downgrades)
	}
	// The drop rule removed cache replacement policies everywhere.
	res.System.Walk(func(c *model.Component) bool {
		if _, ok := c.Attr("replacement"); ok {
			t.Errorf("replacement kept on %s", c)
		}
		return true
	})
}

func TestProcessMyriadStandalone(t *testing.T) {
	tc := newToolchain(t, Options{})
	res, err := tc.Process("myriad_standalone")
	if err != nil {
		t.Fatal(err)
	}
	// The full Myriad1 expands inside the board device.
	if got := analysis.CountCores(res.System); got != 9 {
		t.Fatalf("cores = %d", got)
	}
	if got := res.System.CountKind("power_domain"); got != 10 {
		t.Fatalf("power domains = %d", got)
	}
}

func TestBootstrapErrorPaths(t *testing.T) {
	// An instruction set with "?" energies but no microbenchmark suite
	// anywhere in the model must fail loudly.
	dir := t.TempDir()
	writeModel := func(name, src string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeModel("isa.xpdl", `
<instructions name="lonely_isa">
  <inst name="fadd" energy="?" energy_unit="pJ"/>
</instructions>`)
	writeModel("sys.xpdl", `
<system id="lonely">
  <cpu id="c0"><instructions id="i0" type="lonely_isa"/></cpu>
</system>`)
	tc, err := New(Options{SearchPaths: []string{dir}, RunMicrobenchmarks: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Process("lonely"); err == nil ||
		!strings.Contains(err.Error(), "no microbenchmark suite") {
		t.Fatalf("missing suite not reported: %v", err)
	}

	// A fully specified table without a suite is fine (nothing to
	// derive).
	writeModel("isa2.xpdl", `
<instructions name="full_isa">
  <inst name="fadd" energy="820" energy_unit="pJ"/>
</instructions>`)
	writeModel("sys2.xpdl", `
<system id="full">
  <cpu id="c0"><instructions id="i0" type="full_isa"/></cpu>
</system>`)
	tc2, err := New(Options{SearchPaths: []string{dir}, RunMicrobenchmarks: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tc2.Process("full")
	if err != nil {
		t.Fatal(err)
	}
	if res.Microbench != nil && len(res.Microbench.PerInst) != 0 {
		t.Fatalf("unexpected calibration: %+v", res.Microbench)
	}
}

func TestNewRejectsBadSearchPath(t *testing.T) {
	if _, err := New(Options{SearchPaths: []string{"/nonexistent/path/zz"}}); err == nil {
		t.Fatal("bad search path accepted")
	}
}
