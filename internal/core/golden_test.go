package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/runtime_canonical.sha256 with the current pipeline's output")

// canonicalGolden pins the whole pipeline, analysis included: one line
// per system and option set with the sha256 of the runtime model's
// canonical stream.
const canonicalGolden = "testdata/runtime_canonical.sha256"

// TestRuntimeCanonicalGoldens pins what Process emits for every shipped
// system, after synthesized attributes, bandwidth downgrading, filtering
// and (in the calibrated variant) microbenchmark write-back. Group
// members are identical, so a write that leaked from one member into
// its siblings would not show in the resolver's goldens; it changes the
// runtime model here. Regenerate with
// `go test ./internal/core -run CanonicalGoldens -update`.
func TestRuntimeCanonicalGoldens(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{Seed: 1}},
		{"calibrated", Options{RunMicrobenchmarks: true, Seed: 42}},
	}
	var b strings.Builder
	for _, sys := range []string{"XScluster", "liu_gpu_server", "myriad_server", "myriad_standalone"} {
		for _, v := range variants {
			res, err := newToolchain(t, v.opts).Process(sys)
			if err != nil {
				t.Fatalf("%s/%s: %v", sys, v.name, err)
			}
			h := sha256.New()
			if err := res.Runtime.WriteCanonical(h); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s %x\n", sys, v.name, h.Sum(nil))
		}
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(canonicalGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(canonicalGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(canonicalGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Fatalf("runtime models differ from %s:\ngot:\n%swant:\n%s", canonicalGolden, got, want)
	}
}
