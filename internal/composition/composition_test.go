package composition

import (
	"math"
	"testing"

	"xpdl/internal/expr"
	"xpdl/internal/model"
	"xpdl/internal/query"
	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// gpuServerSession builds a platform session for a GPU server with
// CUBLAS installed (the case-study machine).
func gpuServerSession(withGPU, withCUBLAS, withSparseBLAS bool) *query.Session {
	sys := model.New("system")
	sys.ID = "srv"
	cpu := model.New("cpu")
	cpu.ID = "host"
	cpu.SetQuantity("frequency", units.MustParse("2", "GHz"))
	for i := 0; i < 4; i++ {
		cpu.Children = append(cpu.Children, model.New("core"))
	}
	sys.Children = append(sys.Children, cpu)
	if withGPU {
		gpu := model.New("device")
		gpu.ID = "gpu1"
		pm := model.New("programming_model")
		pm.SetAttr("type", model.Attr{Raw: "cuda6.0"})
		gpu.Children = append(gpu.Children, pm)
		sys.Children = append(sys.Children, gpu)
		ics := model.New("interconnects")
		ic := model.New("interconnect")
		ic.ID = "conn1"
		ch := model.New("channel")
		ch.Name = "up_link"
		ch.SetQuantity("max_bandwidth", units.MustParse("6", "GiB/s"))
		ch.SetQuantity("energy_per_byte", units.MustParse("8", "pJ"))
		ic.Children = append(ic.Children, ch)
		ics.Children = append(ics.Children, ic)
		sys.Children = append(sys.Children, ics)
	}
	sw := model.New("software")
	if withCUBLAS {
		inst := model.New("installed")
		inst.Type = "CUBLAS_6.0"
		sw.Children = append(sw.Children, inst)
	}
	if withSparseBLAS {
		inst := model.New("installed")
		inst.Type = "SparseBLAS_1.2"
		sw.Children = append(sw.Children, inst)
	}
	sys.Children = append(sys.Children, sw)
	return query.NewSession(rtmodel.Build(sys))
}

func TestSelectableFiltering(t *testing.T) {
	s := gpuServerSession(true, true, false)
	comp := SpMVComponent(s)
	m := RandomMatrix(256, 0.01, 1)
	x := make([]float64, 256)
	ctx := NewSpMVContext(s, m, x)
	defer ReleaseSpMVContext(ctx)

	cands, err := comp.Selectable(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// cpu-csr (always) + gpu (CUBLAS present, density above threshold);
	// no SparseBLAS installed.
	if len(cands) != 2 {
		t.Fatalf("candidates = %v", names(cands))
	}
	if comp.Variant("cpu-sparseblas") == nil || comp.Variant("zz") != nil {
		t.Fatal("Variant lookup wrong")
	}
	vn := comp.VariantNames()
	if len(vn) != 3 || vn[0] != "cpu-csr" {
		t.Fatalf("names = %v", vn)
	}
}

func names(vs []*Variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

func TestNoGPUNoCUBLASFallsBackToCPU(t *testing.T) {
	for _, cfg := range []struct {
		gpu, cublas bool
	}{{false, true}, {true, false}, {false, false}} {
		s := gpuServerSession(cfg.gpu, cfg.cublas, false)
		comp := SpMVComponent(s)
		m := RandomMatrix(512, 0.05, 2)
		x := ones(512)
		ctx := NewSpMVContext(s, m, x)
		res, v, err := comp.Call(ctx)
		ReleaseSpMVContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v.Name != "cpu-csr" {
			t.Fatalf("gpu=%v cublas=%v: selected %s", cfg.gpu, cfg.cublas, v.Name)
		}
		if res.TimeS <= 0 || res.EnergyJ <= 0 {
			t.Fatalf("degenerate result %+v", res)
		}
	}
}

func TestSparseBLASPreferredOverCSR(t *testing.T) {
	s := gpuServerSession(false, false, true)
	comp := SpMVComponent(s)
	m := RandomMatrix(512, 0.02, 3)
	ctx := NewSpMVContext(s, m, ones(512))
	defer ReleaseSpMVContext(ctx)
	v, err := comp.Select(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "cpu-sparseblas" {
		t.Fatalf("selected %s", v.Name)
	}
}

func TestDensityCrossover(t *testing.T) {
	// The case-study shape: at low density the CPU wins (GPU pays
	// launch + transfer offsets), at high density the GPU wins, and
	// there is a crossover in between.
	s := gpuServerSession(true, true, false)
	comp := SpMVComponent(s)
	const n = 2048
	pick := func(density float64) string {
		m := RandomMatrix(n, density, 7)
		ctx := NewSpMVContext(s, m, ones(n))
		defer ReleaseSpMVContext(ctx)
		v, err := comp.Select(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return v.Name
	}
	low := pick(0.001)
	high := pick(0.3)
	if low != "cpu-csr" {
		t.Errorf("low density picked %s, want cpu-csr", low)
	}
	if high != "gpu-cusparse" {
		t.Errorf("high density picked %s, want gpu-cusparse", high)
	}
	// Monotone switch: once the GPU wins it keeps winning as density
	// grows.
	sawGPU := false
	for _, d := range []float64{0.001, 0.005, 0.02, 0.08, 0.3} {
		got := pick(d)
		if got == "gpu-cusparse" {
			sawGPU = true
		} else if sawGPU {
			t.Errorf("selection flapped back to %s at density %g", got, d)
		}
	}
	if !sawGPU {
		t.Error("GPU never selected")
	}
}

func TestAdaptiveNeverWorseThanFixed(t *testing.T) {
	s := gpuServerSession(true, true, false)
	comp := SpMVComponent(s)
	const n = 1024
	for _, d := range []float64{0.001, 0.01, 0.1} {
		m := RandomMatrix(n, d, 11)
		ctx := NewSpMVContext(s, m, ones(n))
		adaptive, v, err := comp.Call(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := comp.Variant("cpu-csr").Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		times := []float64{cpu.TimeS}
		if gv := comp.Variant("gpu-cusparse"); gv != nil {
			if g, err := gv.Run(ctx); err == nil {
				times = append(times, g.TimeS)
			}
		}
		best := times[0]
		for _, tt := range times {
			if tt < best {
				best = tt
			}
		}
		if adaptive.TimeS > best*1.0001 {
			t.Errorf("density %g: adaptive (%s) %.3gs worse than best fixed %.3gs",
				d, v.Name, adaptive.TimeS, best)
		}
		// All variants agree numerically.
		if math.Abs(adaptive.Value-cpu.Value) > 1e-9*math.Max(1, math.Abs(cpu.Value)) {
			t.Errorf("density %g: variant results diverge: %g vs %g", d, adaptive.Value, cpu.Value)
		}
		ReleaseSpMVContext(ctx)
	}
}

func TestMultiplyCSRReference(t *testing.T) {
	// 2x2 identity-ish check.
	m := &Matrix{
		N:      2,
		RowPtr: []int32{0, 1, 3},
		ColIdx: []int32{0, 0, 1},
		Vals:   []float64{2, 3, 4},
	}
	y := m.MultiplyCSR([]float64{1, 10})
	if y[0] != 2 || y[1] != 3+40 {
		t.Fatalf("y = %v", y)
	}
}

func TestRandomMatrixShape(t *testing.T) {
	m := RandomMatrix(100, 0.1, 5)
	if m.N != 100 || len(m.RowPtr) != 101 {
		t.Fatalf("shape wrong: %d %d", m.N, len(m.RowPtr))
	}
	nnz := m.NNZ()
	if nnz < 500 || nnz > 1500 {
		t.Fatalf("nnz = %d, want ~1000", nnz)
	}
	// Deterministic for the same seed.
	m2 := RandomMatrix(100, 0.1, 5)
	if m2.NNZ() != nnz {
		t.Fatal("matrix generation not deterministic")
	}
	// Columns sorted within rows.
	for i := 0; i < m.N; i++ {
		for k := m.RowPtr[i] + 1; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k-1] >= m.ColIdx[k] {
				t.Fatalf("row %d columns unsorted", i)
			}
		}
	}
}

func TestContextErrors(t *testing.T) {
	s := gpuServerSession(true, true, false)
	comp := SpMVComponent(s)
	// Context without operands: Run fails, Cost is +inf, Call errors.
	ctx := Context{Session: s, Vars: map[string]expr.Value{"density": expr.Number(0.1)}}
	if _, _, err := comp.Call(ctx); err == nil {
		t.Fatal("missing operands accepted")
	}
	// Bad handle.
	ctx2 := Context{Session: s, Vars: map[string]expr.Value{
		"__matrix": expr.Number(99999), "density": expr.Number(0.1)}}
	if _, err := comp.Variant("cpu-csr").Run(ctx2); err == nil {
		t.Fatal("bad handle accepted")
	}
	// Constraint referencing an undefined variable is reported.
	c := &Component{Name: "c", Variants: []*Variant{
		{Name: "v", Selectable: "undefined_var > 1"},
	}}
	if _, err := c.Select(Context{}); err == nil {
		t.Fatal("constraint error not surfaced")
	}
	// No selectable variant at all.
	c2 := &Component{Name: "c2", Variants: []*Variant{
		{Name: "v", Selectable: "false"},
	}}
	if _, err := c2.Select(Context{}); err == nil {
		t.Fatal("empty selectable set accepted")
	}
}

func TestExtractCostsFallbacks(t *testing.T) {
	pc := ExtractCosts(nil)
	if pc.CPUFreqHz != 2e9 || pc.GPUPresent {
		t.Fatalf("fallback costs = %+v", pc)
	}
	s := gpuServerSession(true, true, false)
	pc = ExtractCosts(s)
	if !pc.GPUPresent {
		t.Fatal("GPU not detected")
	}
	if pc.PCIeBps != 6*(1<<30) {
		t.Fatalf("pcie bw = %g", pc.PCIeBps)
	}
	if pc.PCIeEnergyPB != 8e-12 {
		t.Fatalf("pcie energy = %g", pc.PCIeEnergyPB)
	}
	if pc.CPUFreqHz != 2e9 {
		t.Fatalf("cpu freq = %g", pc.CPUFreqHz)
	}
}

func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// TestRankOnePass checks that Rank over one Selectable pass picks what
// Select picks, evaluates each candidate's cost once, keeps the
// earliest variant on a cost tie, and reports the guard error when
// nothing is selectable.
func TestRankOnePass(t *testing.T) {
	ctx := Context{Session: gpuServerSession(true, true, false), Vars: map[string]expr.Value{"n": expr.Number(100)}}
	costCalls := map[string]int{}
	cost := func(name string, c float64) func(Context) float64 {
		return func(Context) float64 {
			costCalls[name]++
			return c
		}
	}
	comp := &Component{Name: "k", Variants: []*Variant{
		{Name: "gpu", Selectable: "num_cuda_devices() > 0 && installed('CUBLAS')", Cost: cost("gpu", 1)},
		{Name: "broken", Selectable: "nosuch()", Cost: cost("broken", 0)},
		{Name: "tie", Selectable: "n > 10", Cost: cost("tie", 1)},
		{Name: "cpu", Cost: cost("cpu", 5)},
	}}
	cands, selErr := comp.Selectable(ctx)
	if len(cands) != 3 || selErr == nil {
		t.Fatalf("Selectable: %d candidates, err %v; want 3 and the broken guard's error", len(cands), selErr)
	}
	best, err := comp.Rank(ctx, cands, selErr)
	if err != nil || best.Name != "gpu" {
		t.Fatalf("Rank = %v, %v; want gpu (the earlier of the cost-1 tie)", best, err)
	}
	for _, name := range []string{"gpu", "tie", "cpu"} {
		if costCalls[name] != 1 {
			t.Errorf("cost of %s evaluated %d times, want 1", name, costCalls[name])
		}
	}
	if costCalls["broken"] != 0 {
		t.Errorf("cost of the unselectable variant evaluated %d times", costCalls["broken"])
	}
	if sel, err := comp.Select(ctx); err != nil || sel != best {
		t.Fatalf("Select = %v, %v; Rank chose %v", sel, err, best)
	}

	none := &Component{Name: "k", Variants: []*Variant{{Name: "broken", Selectable: "nosuch()"}}}
	cands, selErr = none.Selectable(ctx)
	if _, err := none.Rank(ctx, cands, selErr); err == nil || err != selErr {
		t.Fatalf("Rank with no candidates = %v, want the guard error %v", err, selErr)
	}
	empty := &Component{Name: "k", Variants: []*Variant{{Name: "off", Selectable: "false"}}}
	if _, err := empty.Rank(ctx, nil, nil); err == nil || err.Error() != "composition: k: no selectable variant" {
		t.Fatalf("Rank with no candidates and no error = %v", err)
	}
}
