// Benchmark harness: one testing.B benchmark per experiment in
// DESIGN.md / EXPERIMENTS.md (E1–E13). The XPDL paper is a design paper
// without numeric result tables, so each benchmark regenerates the
// corresponding artifact or claim: the model-zoo composition, the
// Kepler inheritance chain, power state machines, microbenchmark
// bootstrapping, the conditional-composition case study, query API
// overhead, the PDL baseline, static analysis, the distributed
// repository, the generators, hierarchical energy rollups, DVFS
// optimization, and the runtime model file.
//
// Run: go test -bench=. -benchmem
package xpdl_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"xpdl"
	"xpdl/internal/analysis"
	"xpdl/internal/cluster"
	"xpdl/internal/composition"
	"xpdl/internal/core"
	"xpdl/internal/energy"
	"xpdl/internal/mapping"
	"xpdl/internal/microbench"
	"xpdl/internal/model"
	"xpdl/internal/parser"
	"xpdl/internal/pdl"
	"xpdl/internal/power"
	"xpdl/internal/query"
	"xpdl/internal/repo"
	reposerver "xpdl/internal/repo/server"
	"xpdl/internal/resolve"
	"xpdl/internal/rtmodel"
	"xpdl/internal/simhw"
)

// ---- shared fixtures ----

var (
	fixtureOnce sync.Once
	fixtureErr  error
	liuResult   *core.Result
	liuSession  *query.Session
	xsResult    *core.Result
)

func fixtures(b *testing.B) (*core.Result, *query.Session, *core.Result) {
	b.Helper()
	fixtureOnce.Do(func() {
		tc, err := core.New(core.Options{
			SearchPaths:        []string{"models"},
			RunMicrobenchmarks: true,
			Seed:               42,
		})
		if err != nil {
			fixtureErr = err
			return
		}
		liuResult, err = tc.Process("liu_gpu_server")
		if err != nil {
			fixtureErr = err
			return
		}
		liuSession = query.NewSession(liuResult.Runtime)
		tc2, err := core.New(core.Options{SearchPaths: []string{"models"}})
		if err != nil {
			fixtureErr = err
			return
		}
		xsResult, err = tc2.Process("XScluster")
		if err != nil {
			fixtureErr = err
		}
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return liuResult, liuSession, xsResult
}

// ---- E1: model zoo parse + compose ----

func BenchmarkE1_ModelZooCompose(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc, err := core.New(core.Options{SearchPaths: []string{"models"}})
		if err != nil {
			b.Fatal(err)
		}
		res, err := tc.Process("liu_gpu_server")
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Components < 5000 {
			b.Fatal("composed tree too small")
		}
	}
}

// ---- E2: Kepler inheritance + constraint resolution ----

func BenchmarkE2_InheritanceResolve(b *testing.B) {
	rp, err := repo.New("models")
	if err != nil {
		b.Fatal(err)
	}
	inst := model.New("device")
	inst.ID = "gpu_bench"
	inst.Type = "Nvidia_K20c"
	inst.Params = []*model.Param{
		{Name: "L1size", Value: "16", Unit: "KB"},
		{Name: "shmsize", Value: "48", Unit: "KB"},
	}
	if err := rp.Register(inst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := resolve.New(rp)
		gpu, err := r.ResolveSystem("gpu_bench")
		if err != nil {
			b.Fatal(err)
		}
		if gpu.CountKind("core") != 13*192 {
			b.Fatal("wrong expansion")
		}
	}
}

// ---- E3: power state machine simulation ----

func BenchmarkE3_PowerStateMachine(b *testing.B) {
	sm, err := power.NewStateMachine("bench_psm", "pd",
		[]power.State{
			{Name: "P1", FreqHz: 1.2e9, PowerW: 20},
			{Name: "P2", FreqHz: 1.6e9, PowerW: 27},
			{Name: "P3", FreqHz: 2.0e9, PowerW: 38},
		},
		[]power.Transition{
			{Head: "P2", Tail: "P1", TimeS: 1e-6, EnergyJ: 2e-9},
			{Head: "P3", Tail: "P2", TimeS: 1e-6, EnergyJ: 2e-9},
			{Head: "P1", Tail: "P3", TimeS: 2e-6, EnergyJ: 5e-9},
		})
	if err != nil {
		b.Fatal(err)
	}
	schedule := []power.Step{
		{State: "P3", Duration: 0.4}, {State: "P2", Duration: 0.3},
		{State: "P1", Duration: 0.2}, {State: "P3", Duration: 0.1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sm.Simulate("P1", schedule); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E4: microbenchmark bootstrap fidelity ----

func BenchmarkE4_MicrobenchBootstrap(b *testing.B) {
	src, err := os.ReadFile("models/power/x86_base_isa.xpdl")
	if err != nil {
		b.Fatal(err)
	}
	mbSrc, err := os.ReadFile("models/power/mb_x86_base_1.xpdl")
	if err != nil {
		b.Fatal(err)
	}
	p := parser.New()
	suiteComp, _, err := p.ParseFile("mb.xpdl", mbSrc)
	if err != nil {
		b.Fatal(err)
	}
	suite, err := microbench.SuiteFromComponent(suiteComp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	worst := 0.0
	for i := 0; i < b.N; i++ {
		isaComp, _, err := p.ParseFile("isa.xpdl", src)
		if err != nil {
			b.Fatal(err)
		}
		tab, err := energy.TableFromComponent(isaComp)
		if err != nil {
			b.Fatal(err)
		}
		runner := microbench.NewRunner(simhw.NewX86(int64(i)))
		rep, err := runner.Bootstrap(tab, suite, false)
		if err != nil {
			b.Fatal(err)
		}
		if rep.MaxRelErr() > worst {
			worst = rep.MaxRelErr()
		}
	}
	b.ReportMetric(worst*100, "max-rel-err-%")
}

// ---- E5: conditional composition case study ----

func BenchmarkE5_ConditionalComposition(b *testing.B) {
	_, s, _ := fixtures(b)
	comp := composition.SpMVComponent(s)
	const n = 1024
	densities := []float64{0.001, 0.01, 0.1}
	ctxs := make([]composition.Context, len(densities))
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	for i, d := range densities {
		ctxs[i] = composition.NewSpMVContext(s, composition.RandomMatrix(n, d, int64(i)), x)
	}
	defer func() {
		for _, c := range ctxs {
			composition.ReleaseSpMVContext(c)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ctx := range ctxs {
			if _, _, err := comp.Call(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- E6: runtime query API overhead ----

func BenchmarkE6_QueryAPI(b *testing.B) {
	_, s, _ := fixtures(b)
	b.Run("NumCores", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s.Root().NumCores() != 2500 {
				b.Fatal("wrong count")
			}
		}
	})
	b.Run("Find", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := s.Find("gpu1"); !ok {
				b.Fatal("not found")
			}
		}
	})
	b.Run("Getter", func(b *testing.B) {
		gpu, _ := s.Find("gpu1")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := gpu.GetFloat("compute_capability"); !ok {
				b.Fatal("missing attr")
			}
		}
	})
	b.Run("Installed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !s.Installed("CUBLAS") {
				b.Fatal("missing software")
			}
		}
	})
}

// ---- E7: PDL baseline: monolithic parse + query; modularity metrics ----

func BenchmarkE7_PDLBaseline(b *testing.B) {
	doc := []byte(pdl.SynthesizeCluster(4, 8))
	b.ReportMetric(float64(len(doc)), "monolithic-bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pdl.Parse("cluster.pdl", doc)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := p.Query("exists(node0_gpu0.N0_GPU0_PROP_0)"); !ok {
			b.Fatal("query failed")
		}
	}
}

// ---- E8: static analysis ----

func BenchmarkE8_StaticAnalysis(b *testing.B) {
	liu, _, _ := fixtures(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := liu.System.Clone()
		analysis.Annotate(sys, analysis.DefaultRules())
		analysis.DowngradeBandwidth(sys)
	}
}

// ---- E9: distributed repository: remote fetch vs cache ----

func BenchmarkE9_DistributedRepo(b *testing.B) {
	mux := http.NewServeMux()
	mux.HandleFunc("/Nvidia_K20c.xpdl", func(w http.ResponseWriter, r *http.Request) {
		src, err := os.ReadFile("models/device/Nvidia_K20c.xpdl")
		if err != nil {
			http.Error(w, err.Error(), 500)
			return
		}
		w.Write(src)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	b.Run("ColdFetch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := repo.New()
			if err != nil {
				b.Fatal(err)
			}
			r.AddRemote(srv.URL)
			if _, err := r.Load("Nvidia_K20c"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CachedLoad", func(b *testing.B) {
		r, err := repo.New()
		if err != nil {
			b.Fatal(err)
		}
		r.AddRemote(srv.URL)
		if _, err := r.Load("Nvidia_K20c"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Load("Nvidia_K20c"); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Revalidated304 measures a repository restart against an unchanged
	// remote: the descriptor is served by the real xpdlrepo handler, the
	// client revalidates its disk cache with If-None-Match and parses
	// the on-disk copy after the 304 — no body transfer.
	b.Run("Revalidated304", func(b *testing.B) {
		h, err := reposerver.New("models/device")
		if err != nil {
			b.Fatal(err)
		}
		realSrv := httptest.NewServer(h)
		defer realSrv.Close()
		cacheDir := b.TempDir()
		cfg := repo.DefaultFetchConfig()
		cfg.CacheDir = cacheDir
		warm, err := repo.New()
		if err != nil {
			b.Fatal(err)
		}
		warm.SetFetchConfig(cfg)
		warm.AddRemote(realSrv.URL)
		if _, err := warm.Load("Nvidia_K20c"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := repo.New()
			if err != nil {
				b.Fatal(err)
			}
			r.SetFetchConfig(cfg)
			r.AddRemote(realSrv.URL)
			if _, err := r.Load("Nvidia_K20c"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		r, _ := repo.New()
		r.SetFetchConfig(cfg)
		r.AddRemote(realSrv.URL)
		r.Load("Nvidia_K20c")
		if st := r.Stats(); st.NotModified != 1 || st.RemoteFetches != 0 {
			b.Fatalf("revalidation did not take the 304 path: %+v", st)
		}
	})
}

// ---- E10: generators ----

func BenchmarkE10_Codegen(b *testing.B) {
	b.ReportAllocs()
	var bytesOut int
	for i := 0; i < b.N; i++ {
		files, err := xpdl.GenerateCPPAPI()
		if err != nil {
			b.Fatal(err)
		}
		xsd := xpdl.GenerateXSD()
		bytesOut = len(files["xpdl_model.hpp"]) + len(files["xpdl_model.cpp"]) + len(xsd)
	}
	b.ReportMetric(float64(bytesOut), "generated-bytes")
}

// ---- E11: hierarchical energy rollup over the cluster ----

func BenchmarkE11_EnergyRollup(b *testing.B) {
	_, _, xs := fixtures(b)
	b.ReportAllocs()
	var total float64
	for i := 0; i < b.N; i++ {
		bd := energy.StaticBreakdown(xs.System)
		total = bd.TotalW
	}
	b.ReportMetric(total, "cluster-watts")
}

// ---- E12: DVFS optimization vs baselines ----

func BenchmarkE12_DVFSOptimize(b *testing.B) {
	sm, err := power.NewStateMachine("bench_psm", "pd",
		[]power.State{
			{Name: "P1", FreqHz: 1.2e9, PowerW: 20},
			{Name: "P2", FreqHz: 1.6e9, PowerW: 27},
			{Name: "P3", FreqHz: 2.0e9, PowerW: 38},
		},
		[]power.Transition{
			{Head: "P2", Tail: "P1", TimeS: 1e-6, EnergyJ: 2e-9},
			{Head: "P3", Tail: "P2", TimeS: 1e-6, EnergyJ: 2e-9},
			{Head: "P1", Tail: "P3", TimeS: 2e-6, EnergyJ: 5e-9},
		})
	if err != nil {
		b.Fatal(err)
	}
	w := power.Workload{Cycles: 3e9, DeadlineS: 2.0}
	b.ReportAllocs()
	var saved float64
	for i := 0; i < b.N; i++ {
		opt, err := sm.Optimize("P3", w)
		if err != nil {
			b.Fatal(err)
		}
		race, err := sm.RaceToIdle("P3", w)
		if err != nil {
			b.Fatal(err)
		}
		saved = (race.EnergyJ - opt.EnergyJ) / race.EnergyJ * 100
	}
	b.ReportMetric(saved, "energy-saved-%")
}

// ---- E13: runtime model file emission + loading ----

func BenchmarkE13_RuntimeFile(b *testing.B) {
	liu, _, _ := fixtures(b)
	var buf bytes.Buffer
	if err := liu.Runtime.Save(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportMetric(float64(len(raw)), "file-bytes")
	b.Run("Save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := liu.Runtime.Save(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rtmodel.Load(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sanity: the harness fixtures compose.
func TestBenchFixtures(t *testing.T) {
	tc, err := core.New(core.Options{SearchPaths: []string{"models"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tc.Process("liu_gpu_server")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Components < 5000 {
		t.Fatalf("components = %d", res.Stats.Components)
	}
	_ = fmt.Sprintf("%v", res.Stats.ByKind)
}

// ---- Ablation: string interning in the runtime format ----

func BenchmarkAblation_RuntimeFileSize(b *testing.B) {
	liu, _, _ := fixtures(b)
	var buf bytes.Buffer
	if err := liu.Runtime.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(buf.Len()), "interned-bytes")
	b.ReportMetric(float64(liu.Runtime.Len()), "nodes")
	for i := 0; i < b.N; i++ {
		var w bytes.Buffer
		if err := liu.Runtime.Save(&w); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation: performance-greedy vs energy-greedy task mapping ----

func BenchmarkAblation_MappingPolicies(b *testing.B) {
	_, s, _ := fixtures(b)
	targets := mapping.TargetsFromSession(s)
	var tasks []mapping.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks,
			mapping.Task{Name: fmt.Sprintf("f%d", i), Cycles: 4e7, Bytes: 1 << 18, Speedup: 20},
			mapping.Task{Name: fmt.Sprintf("s%d", i), Cycles: 3e10, Bytes: 1 << 23, Speedup: 20, Parallelizable: true},
		)
	}
	b.ReportAllocs()
	var saved float64
	for i := 0; i < b.N; i++ {
		perf, err := mapping.MapGreedyTime(tasks, targets)
		if err != nil {
			b.Fatal(err)
		}
		eco, err := mapping.MapGreedyEnergy(tasks, targets, perf.MakespanS*2)
		if err != nil {
			b.Fatal(err)
		}
		saved = (perf.EnergyJ - eco.EnergyJ) / perf.EnergyJ * 100
	}
	b.ReportMetric(saved, "energy-saved-%")
}

// ---- Ablation: system-wide DVFS on the cluster simulator ----

func BenchmarkAblation_ClusterDVFS(b *testing.B) {
	rp, err := repo.New("models")
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.FromSystemID(resolve.New(rp), "XScluster")
	if err != nil {
		b.Fatal(err)
	}
	work := []cluster.Phase{
		{Name: "p1", PerNodeCycles: []float64{4e9, 2e9, 2e9, 2e9}, Bytes: 1 << 20},
		{Name: "p2", PerNodeCycles: []float64{2e9, 4e9, 2e9, 2e9}, Bytes: 1 << 20},
	}
	b.ReportAllocs()
	var saved float64
	for i := 0; i < b.N; i++ {
		maxRep, err := cl.Run(work, cluster.MaxFrequency)
		if err != nil {
			b.Fatal(err)
		}
		optRep, err := cl.Run(work, cluster.EnergyOptimal)
		if err != nil {
			b.Fatal(err)
		}
		saved = (maxRep.TotalJ - optRep.TotalJ) / maxRep.TotalJ * 100
	}
	b.ReportMetric(saved, "energy-saved-%")
}
