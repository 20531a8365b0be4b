package query

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/model"
	"xpdl/internal/rtmodel"
	"xpdl/internal/units"
)

// benchSession builds a serving-scale synthetic platform: 64 nodes of
// 32 cores plus caches and devices (~4k elements), the size regime
// where the walker-vs-index gap matters for xpdld.
func benchSession() *Session {
	sys := model.New("system")
	sys.ID = "bench"
	for n := 0; n < 64; n++ {
		node := model.New("node")
		node.ID = fmt.Sprintf("node%d", n)
		cpu := model.New("cpu")
		cpu.ID = fmt.Sprintf("cpu%d", n)
		cpu.SetQuantity("frequency", units.Quantity{Value: 2e9 + float64(n)*1e7})
		for c := 0; c < 32; c++ {
			core := model.New("core")
			core.ID = fmt.Sprintf("n%dc%d", n, c)
			core.Name = fmt.Sprintf("core%d", c)
			cpu.Children = append(cpu.Children, core)
		}
		cache := model.New("cache")
		cache.ID = fmt.Sprintf("l3-%d", n)
		cache.Name = "L3"
		dev := model.New("device")
		dev.ID = fmt.Sprintf("dev%d", n)
		node.Children = append(node.Children, cpu, cache, dev)
		sys.Children = append(sys.Children, node)
	}
	return NewSession(rtmodel.Build(sys))
}

// benchSelectors are the E17 comparison points: the shapes the
// per-snapshot indexes accelerate, from full-map-hit to kind-scan.
var benchSelectors = []struct{ name, sel string }{
	{"kind_name", "//core[name=core7]"},
	{"id", "//cache[id=l3-31]"},
	{"kind", "//device"},
	{"kind_scan", "//cpu[frequency>=2.3e9]"},
}

func BenchmarkSelectWalker(b *testing.B) {
	s := benchSession()
	for _, bs := range benchSelectors {
		p, err := Compile(bs.sel)
		if err != nil {
			b.Fatal(err)
		}
		root := s.Root()
		b.Run(bs.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := p.runWalker(root); len(got) == 0 {
					b.Fatalf("%s matched nothing", bs.sel)
				}
			}
		})
	}
}

func BenchmarkSelectIndexed(b *testing.B) {
	s := benchSession()
	s.BuildIndexes()
	for _, bs := range benchSelectors {
		p, err := Compile(bs.sel)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bs.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := p.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				if len(got) == 0 {
					b.Fatalf("%s matched nothing", bs.sel)
				}
			}
		})
	}
}

// bundledSession resolves one of the repository's bundled models
// through the toolchain — the E17 "real model" comparison point.
func bundledSession(b testing.TB, system string) *Session {
	b.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		b.Fatal("caller unknown")
	}
	models := filepath.Join(filepath.Dir(file), "..", "..", "models")
	tc, err := core.New(core.Options{SearchPaths: []string{models}})
	if err != nil {
		b.Fatal(err)
	}
	res, err := tc.Process(system)
	if err != nil {
		b.Fatal(err)
	}
	return NewSession(res.Runtime)
}

// BenchmarkSelectBundled runs the walker-vs-indexed comparison on the
// bundled XScluster model (the paper's 240-node cluster): the
// acceptance shape //kind[name=X] both ways.
func BenchmarkSelectBundled(b *testing.B) {
	s := bundledSession(b, "XScluster")
	s.BuildIndexes()
	const sel = "//cache[name=L3]"
	p, err := Compile(sel)
	if err != nil {
		b.Fatal(err)
	}
	root := s.Root()
	if n := len(p.runWalker(root)); n == 0 {
		b.Fatalf("%s matched nothing", sel)
	}
	b.Run("walker", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.runWalker(root)
		}
	})
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.Run(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompile measures the per-request front-end work the plan
// cache removes: a fresh parse versus a cache hit.
func BenchmarkCompile(b *testing.B) {
	const sel = "//core[name=core7]"
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compile(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		c := NewPlanCache(16)
		if _, err := c.Get(sel); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Get(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSelectEndToEnd is the full hot path as xpdld drives it:
// selector string in, elements out, plan cache and indexes warm.
func BenchmarkSelectEndToEnd(b *testing.B) {
	s := benchSession()
	s.BuildIndexes()
	const sel = "//core[name=core7]"
	if _, err := s.Select(sel); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := s.Select(sel)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != 64 {
			b.Fatalf("matched %d, want 64", len(got))
		}
	}
}

// BenchmarkIndexBuild prices what serve pays once per snapshot load.
func BenchmarkIndexBuild(b *testing.B) {
	s := benchSession()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildSelIndex(s)
	}
}
