package resolve

import (
	"strings"
	"testing"

	"xpdl/internal/model"
	"xpdl/internal/parser"
	"xpdl/internal/repo"
	"xpdl/internal/units"
)

// newRepo builds an in-memory repository from named descriptor sources.
func newRepo(t *testing.T, files map[string]string) *repo.Repository {
	t.Helper()
	r, err := repo.New()
	if err != nil {
		t.Fatal(err)
	}
	p := parser.New()
	for name, src := range files {
		c, _, err := p.ParseFile(name+".xpdl", []byte(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := r.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

const keplerMeta = `
<device name="Nvidia_Kepler" extends="Nvidia_GPU" role="worker" compute_capability="3.0">
  <const name="shmtotalsize" type="msize" value="64" unit="KB"/>
  <param name="L1size" configurable="true" type="msize" range="16, 32, 48" unit="KB"/>
  <param name="shmsize" configurable="true" type="msize" range="16, 32, 48" unit="KB"/>
  <param name="num_SM" type="integer"/>
  <param name="coresperSM" type="integer"/>
  <param name="cfrq" type="frequency" />
  <param name="gmsz" type="msize" />
  <constraints>
    <constraint expr="L1size + shmsize == shmtotalsize" />
  </constraints>
  <group name="SMs" quantity="num_SM">
    <group name="SM">
      <group prefix="smcore" quantity="coresperSM">
        <core frequency="cfrq" frequency_unit="MHz" />
      </group>
      <cache name="L1" size="L1size" unit="KB" />
      <memory name="shm" size="shmsize" unit="KB" />
    </group>
  </group>
  <memory name="globalmem" type="global" size="gmsz" unit="GB" />
  <programming_model type="cuda6.0, opencl"/>
</device>`

const nvidiaGPUMeta = `
<device name="Nvidia_GPU" role="worker">
  <properties><property name="vendor" value="Nvidia"/></properties>
</device>`

const k20cMeta = `
<device name="Nvidia_K20c" extends="Nvidia_Kepler" compute_capability="3.5">
  <param name="num_SM" value="13" />
  <param name="coresperSM" value="192" />
  <param name="cfrq" value="706" unit="MHz"/>
  <param name="gmsz" size="5" unit="GB" />
</device>`

const gpu1Instance = `
<device id="gpu1" type="Nvidia_K20c">
  <param name="L1size" size="16" unit="KB" />
  <param name="shmsize" size="48" unit="KB" />
</device>`

func keplerRepo(t *testing.T) *repo.Repository {
	return newRepo(t, map[string]string{
		"Nvidia_GPU":    nvidiaGPUMeta,
		"Nvidia_Kepler": keplerMeta,
		"Nvidia_K20c":   k20cMeta,
		"gpu1":          gpu1Instance,
	})
}

func TestKeplerK20cInheritance(t *testing.T) {
	r := New(keplerRepo(t))
	gpu, err := r.ResolveSystem("gpu1")
	if err != nil {
		t.Fatal(err)
	}
	// Identity: instance id wins, type tag retained.
	if gpu.ID != "gpu1" || gpu.Type != "Nvidia_K20c" || gpu.Name != "" {
		t.Fatalf("identity = %s", gpu)
	}
	// Overridden attribute: compute_capability 3.0 -> 3.5.
	cc, _ := gpu.Attr("compute_capability")
	if !cc.HasQuantity || cc.Quantity.Value != 3.5 {
		t.Fatalf("compute_capability = %+v", cc)
	}
	// Inherited attribute from Nvidia_GPU.
	if gpu.AttrRaw("role") != "worker" {
		t.Fatal("role lost in inheritance chain")
	}
	// Property inherited from the root supertype.
	if gpu.Property("vendor") == nil {
		t.Fatal("vendor property lost")
	}
	// Group expansion: 13 SMs, each with 192 cores.
	if got := gpu.CountKind("core"); got != 13*192 {
		t.Fatalf("core count = %d, want %d", got, 13*192)
	}
	// 13 SM L1 caches with the instance-fixed 16 KB size.
	caches := 0
	gpu.Walk(func(c *model.Component) bool {
		if c.Kind == "cache" && c.Name == "L1" {
			caches++
			q, ok := c.QuantityAttr("size")
			if !ok || q.Value != 16*1024 {
				t.Fatalf("L1 size = %+v (ok=%v)", q, ok)
			}
		}
		return true
	})
	if caches != 13 {
		t.Fatalf("L1 caches = %d", caches)
	}
	// Core frequency substituted from cfrq: 706 MHz.
	core := gpu.FindByID("smcore0")
	if core == nil {
		t.Fatal("smcore0 not found")
	}
	freq, ok := core.Children[0].QuantityAttr("frequency")
	if !ok || freq.Value != 706e6 || freq.Dim != units.Frequency {
		t.Fatalf("core frequency = %+v (ok=%v)", freq, ok)
	}
	// Global memory gets the gmsz binding: 5 GB.
	gm := gpu.FindByID("globalmem")
	if gm == nil {
		t.Fatal("globalmem not found")
	}
	sz, ok := gm.QuantityAttr("size")
	if !ok || sz.Value != 5*(1<<30) {
		t.Fatalf("gmsz = %+v", sz)
	}
}

func TestAllLegalKeplerConfigs(t *testing.T) {
	for _, cfg := range []struct{ l1, shm string }{{"16", "48"}, {"32", "32"}, {"48", "16"}} {
		files := map[string]string{
			"Nvidia_GPU":    nvidiaGPUMeta,
			"Nvidia_Kepler": keplerMeta,
			"Nvidia_K20c":   k20cMeta,
			"gpu1": `
<device id="gpu1" type="Nvidia_K20c">
  <param name="L1size" size="` + cfg.l1 + `" unit="KB" />
  <param name="shmsize" size="` + cfg.shm + `" unit="KB" />
</device>`,
		}
		r := New(newRepo(t, files))
		if _, err := r.ResolveSystem("gpu1"); err != nil {
			t.Errorf("config %s+%s rejected: %v", cfg.l1, cfg.shm, err)
		}
	}
}

func TestConstraintViolationRejected(t *testing.T) {
	files := map[string]string{
		"Nvidia_GPU":    nvidiaGPUMeta,
		"Nvidia_Kepler": keplerMeta,
		"Nvidia_K20c":   k20cMeta,
		"gpu1": `
<device id="gpu1" type="Nvidia_K20c">
  <param name="L1size" size="32" unit="KB" />
  <param name="shmsize" size="48" unit="KB" />
</device>`,
	}
	r := New(newRepo(t, files))
	_, err := r.ResolveSystem("gpu1")
	if err == nil || !strings.Contains(err.Error(), "constraint violated") {
		t.Fatalf("violation not caught: %v", err)
	}
}

func TestRangeViolationRejected(t *testing.T) {
	files := map[string]string{
		"Nvidia_GPU":    nvidiaGPUMeta,
		"Nvidia_Kepler": keplerMeta,
		"Nvidia_K20c":   k20cMeta,
		"gpu1": `
<device id="gpu1" type="Nvidia_K20c">
  <param name="L1size" size="20" unit="KB" />
  <param name="shmsize" size="44" unit="KB" />
</device>`,
	}
	r := New(newRepo(t, files))
	_, err := r.ResolveSystem("gpu1")
	if err == nil || !strings.Contains(err.Error(), "outside legal range") {
		t.Fatalf("range violation not caught: %v", err)
	}
}

func TestListing1GroupExpansion(t *testing.T) {
	files := map[string]string{
		"Intel_Xeon_E5_2630L": `
<cpu name="Intel_Xeon_E5_2630L">
  <group prefix="core_group" quantity="2">
    <group prefix="core" quantity="2">
      <core frequency="2" frequency_unit="GHz" />
      <cache name="L1" size="32" unit="KiB" />
    </group>
    <cache name="L2" size="256" unit="KiB" />
  </group>
  <cache name="L3" size="15" unit="MiB" />
</cpu>`,
		"cpu0": `<cpu id="cpu0" type="Intel_Xeon_E5_2630L"/>`,
	}
	r := New(newRepo(t, files))
	cpu, err := r.ResolveSystem("cpu0")
	if err != nil {
		t.Fatal(err)
	}
	if got := cpu.CountKind("core"); got != 4 {
		t.Fatalf("cores = %d, want 4", got)
	}
	// 4 L1 + 2 L2 + 1 L3 = 7 caches.
	if got := cpu.CountKind("cache"); got != 7 {
		t.Fatalf("caches = %d, want 7", got)
	}
	for _, id := range []string{"core_group0", "core_group1", "core0", "core1"} {
		if cpu.FindByID(id) == nil {
			t.Errorf("member %s not found", id)
		}
	}
	// Each core_group member holds exactly one L2.
	cg0 := cpu.FindByID("core_group0")
	l2s := 0
	cg0.Walk(func(c *model.Component) bool {
		if c.Kind == "cache" && c.Name == "L2" {
			l2s++
		}
		return true
	})
	if l2s != 1 {
		t.Fatalf("L2 per core_group = %d", l2s)
	}
}

func TestUnboundParamRejected(t *testing.T) {
	files := map[string]string{
		"M": `
<cpu name="M">
  <param name="f" type="frequency"/>
  <core frequency="f" frequency_unit="MHz"/>
</cpu>`,
		"c0": `<cpu id="c0" type="M"/>`,
	}
	r := New(newRepo(t, files))
	if _, err := r.ResolveSystem("c0"); err == nil ||
		!strings.Contains(err.Error(), "unbound parameter") {
		t.Fatalf("unbound param not caught: %v", err)
	}
}

func TestUnboundQuantityRejected(t *testing.T) {
	files := map[string]string{
		"M": `
<cpu name="M">
  <param name="n" type="integer"/>
  <group prefix="c" quantity="n"><core/></group>
</cpu>`,
		"c0": `<cpu id="c0" type="M"/>`,
	}
	r := New(newRepo(t, files))
	if _, err := r.ResolveSystem("c0"); err == nil {
		t.Fatal("unbound quantity not caught")
	}
}

func TestInheritanceCycleDetected(t *testing.T) {
	files := map[string]string{
		"A": `<cpu name="A" extends="B"/>`,
		"B": `<cpu name="B" extends="A"/>`,
		"x": `<cpu id="x" type="A"/>`,
	}
	r := New(newRepo(t, files))
	if _, err := r.ResolveSystem("x"); err == nil ||
		!strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not caught: %v", err)
	}
}

func TestMissingTypeRejected(t *testing.T) {
	files := map[string]string{
		"x": `<cpu id="x" type="NoSuchCPU"/>`,
	}
	r := New(newRepo(t, files))
	if _, err := r.ResolveSystem("x"); err == nil {
		t.Fatal("missing meta-model not caught")
	}
}

func TestLeafTypeTagTolerated(t *testing.T) {
	files := map[string]string{
		"x": `
<system id="x">
  <memory id="m0" type="DDR3" size="4" unit="GB"/>
  <software><installed type="CUDA_6.0" path="/ext/local/cuda6.0/"/></software>
</system>`,
	}
	r := New(newRepo(t, files))
	sys, err := r.ResolveSystem("x")
	if err != nil {
		t.Fatal(err)
	}
	if sys.FindByID("m0").Type != "DDR3" {
		t.Fatal("leaf type tag lost")
	}
}

func TestEndpointCheck(t *testing.T) {
	good := map[string]string{
		"pcie3": `<interconnect name="pcie3"><channel name="up_link" max_bandwidth="6" max_bandwidth_unit="GiB/s"/></interconnect>`,
		"CPU":   `<cpu name="CPU"/>`,
		"sys": `
<system id="sys">
  <socket><cpu id="host" type="CPU"/></socket>
  <device id="dev1"/>
  <interconnects>
    <interconnect id="conn1" type="pcie3" head="host" tail="dev1"/>
  </interconnects>
</system>`,
	}
	r := New(newRepo(t, good))
	sys, err := r.ResolveSystem("sys")
	if err != nil {
		t.Fatal(err)
	}
	conn := sys.FindByID("conn1")
	if conn == nil {
		t.Fatal("conn1 missing")
	}
	// The pcie3 meta contents were merged into the instance.
	if conn.FirstChildKind("channel") == nil {
		t.Fatal("channel not inherited from interconnect meta")
	}

	bad := map[string]string{
		"pcie3": good["pcie3"],
		"CPU":   good["CPU"],
		"sys": `
<system id="sys">
  <socket><cpu id="host" type="CPU"/></socket>
  <interconnects>
    <interconnect id="conn1" type="pcie3" head="host" tail="ghost"/>
  </interconnects>
</system>`,
	}
	r2 := New(newRepo(t, bad))
	if _, err := r2.ResolveSystem("sys"); err == nil ||
		!strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("dangling endpoint not caught: %v", err)
	}
}

func TestPowerDomainChildrenAreReferences(t *testing.T) {
	files := map[string]string{
		"pd": `
<power_domains name="pd">
  <power_domain name="main_pd" enableSwitchOff="false">
    <core type="Leon" />
  </power_domain>
  <group name="Shave_pds" quantity="8">
    <power_domain name="Shave_pd">
      <core type="Myriad1_Shave" />
    </power_domain>
  </group>
  <power_domain name="CMX_pd" switchoffCondition="Shave_pds off">
    <memory type="CMX" />
  </power_domain>
</power_domains>`,
		"inst": `<power_domains id="inst" type="pd"/>`,
	}
	r := New(newRepo(t, files))
	pd, err := r.ResolveSystem("inst")
	if err != nil {
		t.Fatal(err)
	}
	// The Shave group expanded to 8 domains.
	if got := pd.CountKind("power_domain"); got != 10 {
		t.Fatalf("power domains = %d, want 10", got)
	}
	// The member reference <core type="Leon"> survived without a Leon
	// meta-model in the repository.
	main := pd.FindByID("main_pd")
	if main == nil || main.FirstChildKind("core") == nil ||
		main.FirstChildKind("core").Type != "Leon" {
		t.Fatal("power domain member reference lost")
	}
}

func TestFindByPath(t *testing.T) {
	files := map[string]string{
		"N": `<node name="N"><device id="gpu1"/></node>`,
		"cl": `
<system id="cl">
  <cluster>
    <group prefix="n" quantity="3">
      <node type="N"/>
    </group>
  </cluster>
</system>`,
	}
	r := New(newRepo(t, files))
	sys, err := r.ResolveSystem("cl")
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.CountKind("device"); got != 3 {
		t.Fatalf("devices = %d", got)
	}
	d := FindByPath(sys, "n2/gpu1")
	if d == nil || d.Kind != "device" {
		t.Fatal("path lookup failed")
	}
	if FindByPath(sys, "n9/gpu1") != nil {
		t.Fatal("bogus path resolved")
	}
	if FindByPath(sys, "") != sys {
		t.Fatal("empty path should return root")
	}
}

func TestQuantityExpression(t *testing.T) {
	files := map[string]string{
		"M": `
<cpu name="M">
  <param name="n" type="integer" value="3"/>
  <group prefix="c" quantity="n * 2"><core/></group>
</cpu>`,
		"c0": `<cpu id="c0" type="M"/>`,
	}
	r := New(newRepo(t, files))
	cpu, err := r.ResolveSystem("c0")
	if err != nil {
		t.Fatal(err)
	}
	if got := cpu.CountKind("core"); got != 6 {
		t.Fatalf("cores = %d, want 6", got)
	}
}

func TestNegativeQuantityRejected(t *testing.T) {
	files := map[string]string{
		"c0": `<cpu id="c0"><group prefix="c" quantity="0 - 2"><core/></group></cpu>`,
	}
	r := New(newRepo(t, files))
	if _, err := r.ResolveSystem("c0"); err == nil {
		t.Fatal("negative quantity not caught")
	}
}

func TestZeroQuantityGroup(t *testing.T) {
	files := map[string]string{
		"c0": `<cpu id="c0"><group prefix="c" quantity="0"><core/></group></cpu>`,
	}
	r := New(newRepo(t, files))
	cpu, err := r.ResolveSystem("c0")
	if err != nil {
		t.Fatal(err)
	}
	if got := cpu.CountKind("core"); got != 0 {
		t.Fatalf("cores = %d, want 0", got)
	}
}

func TestRepositoryNotMutated(t *testing.T) {
	rp := keplerRepo(t)
	r := New(rp)
	if _, err := r.ResolveSystem("gpu1"); err != nil {
		t.Fatal(err)
	}
	// The registered instance must still be unexpanded.
	orig, err := rp.Load("gpu1")
	if err != nil {
		t.Fatal(err)
	}
	if orig.CountKind("core") != 0 {
		t.Fatal("resolution mutated the repository copy")
	}
}

func TestMultipleInheritance(t *testing.T) {
	files := map[string]string{
		"A": `<device name="A" role="worker"><properties><property name="pa" value="1"/></properties></device>`,
		"B": `<device name="B" compute_capability="2.0"/>`,
		"C": `<device name="C" extends="A, B" />`,
		"x": `<device id="x" type="C"/>`,
	}
	r := New(newRepo(t, files))
	d, err := r.ResolveSystem("x")
	if err != nil {
		t.Fatal(err)
	}
	if d.AttrRaw("role") != "worker" {
		t.Fatal("attr from first supertype lost")
	}
	if cc, _ := d.Attr("compute_capability"); !cc.HasQuantity || cc.Quantity.Value != 2.0 {
		t.Fatal("attr from second supertype lost")
	}
	if d.Property("pa") == nil {
		t.Fatal("property from supertype lost")
	}
}

// TestParallelPropagatesErrors and TestParallelConstraintViolation
// check that a failure inside the members of a large group surfaces
// although only the first member is instantiated.
func TestParallelPropagatesErrors(t *testing.T) {
	files := map[string]string{
		"M": `
<cpu name="M">
  <param name="f" type="frequency"/>
  <group prefix="c" quantity="32">
    <core frequency="f" frequency_unit="MHz"/>
  </group>
</cpu>`,
		"c0": `<cpu id="c0" type="M"/>`,
	}
	r := New(newRepo(t, files))
	if _, err := r.ResolveSystem("c0"); err == nil ||
		!strings.Contains(err.Error(), "unbound parameter") {
		t.Fatalf("group member error lost: %v", err)
	}
}

func TestParallelConstraintViolation(t *testing.T) {
	files := map[string]string{
		"Nvidia_GPU":    nvidiaGPUMeta,
		"Nvidia_Kepler": keplerMeta,
		"Nvidia_K20c":   k20cMeta,
		"gpu1": `
<device id="gpu1" type="Nvidia_K20c">
  <param name="L1size" size="32" unit="KB" />
  <param name="shmsize" size="48" unit="KB" />
</device>`,
	}
	r := New(newRepo(t, files))
	if _, err := r.ResolveSystem("gpu1"); err == nil {
		t.Fatal("resolution missed constraint violation")
	}
}
