package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xpdl/internal/rtmodel"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_frames.bin with the current encoder")

const goldenFramesPath = "testdata/golden_frames.bin"

type goldenFrame struct {
	name string
	m    binaryMessage
}

// goldenFrameCases lists one message per frame type with every field
// non-zero, the empty variant of every list and map field (non-omitempty
// fields as non-nil empty values, omitempty fields as nil, which is
// what decoding yields), repeated strings that hit the intern table and
// a string longer than rtmodel.MaxInternLen.
func goldenFrameCases() []goldenFrame {
	at := time.Date(2026, 3, 14, 15, 9, 26, 535897932, time.UTC)
	later := at.Add(90 * time.Minute)
	long := strings.Repeat("energy-model/", 25) // 325 bytes: never interned
	f := func(v float64) *float64 { return &v }
	refs := []ElementRef{
		{Kind: "core", Ident: "Intel_Xeon_E5_2630L", Path: "/system/socket[0]/core[0]"},
		{Kind: "core", Ident: "Intel_Xeon_E5_2630L", Path: "/system/socket[0]/core[1]"},
		{Kind: "cache", Ident: "L2", Path: "/system/socket[0]/cache[0]"},
	}
	row := QueryStatRow{
		Endpoint: "select", Model: "liu_gpu_server", Shape: "//core[name=?]", Proto: "bin",
		Calls: 1200, Errors: 3, Rows: 9600, ReqBytes: 48000, RespBytes: 1 << 20,
		LatencySumS: 0.75, P50S: 0.0004, P99S: 0.0031,
		BucketCounts: []int64{400, 700, 97, 3},
		AllocSamples: 12, AllocObjects: 1140, LastGen: 7,
		FirstSeen: at, LastSeen: later,
	}
	return []goldenFrame{
		{"error", &ErrorResponse{Error: "model \"nope\" not found"}},
		{"error/empty", &ErrorResponse{}},
		{"summary", &SummaryResponse{Cores: 2500, CUDADevices: 2, StaticPowerW: 41.5,
			Installed: []string{"CUBLAS", "CUDA", "CUBLAS"}}},
		{"summary/empty", &SummaryResponse{Installed: []string{}}},
		{"select", &SelectResponse{Count: 17, Elements: refs}},
		{"select/empty", &SelectResponse{Elements: []ElementRef{}}},
		{"eval", &EvalResponse{Kind: "num", Num: -2500.25, Bool: true, Str: "s", Text: "-2500.25"}},
		{"eval/long", &EvalResponse{Kind: "str", Str: long, Text: long}},
		{"element", &ElementJSON{Kind: "cpu", ID: "cpu0", Name: "Xeon", Type: "Intel_Xeon_E5_2630L",
			Path: "/system/socket[0]",
			Attrs: map[string]AttrJSON{
				"frequency":    {Raw: "2.0", Value: f(2e9), Unit: "GHz", Display: "2 GHz", Unknown: true},
				"static_power": {Raw: "15", Value: f(15), Unit: "W", Display: "15 W"},
				"vendor":       {Raw: "Intel", Display: "Intel"},
			},
			Children: refs}},
		{"element/empty", &ElementJSON{Kind: "system", Path: "/system"}},
		{"energy", &EnergyResponse{Table: "x86_base", Instructions: []string{"fadd", "fmul", "fadd"},
			Unknowns: []string{"fsqrt"}, Inst: "fmul", GHz: 2.4, EnergyJ: f(1.25e-9)}},
		{"energy/empty", &EnergyResponse{Table: "x86_base"}},
		{"transfer", &TransferResponse{Channel: "pcie3", BandwidthBps: 1.6e10, Bytes: 1 << 30,
			Messages: -4, TimeS: 0.067, EnergyJ: 3.5}},
		{"dispatch", &DispatchResponse{Selectable: []string{"cpu", "gpu"}, Chosen: "gpu",
			Costs: map[string]float64{"gpu": 0.5, "cpu": 2}, Warning: "variant fpga not selectable"}},
		{"dispatch/empty", &DispatchResponse{Selectable: []string{}}},
		{"batch", &BatchResponse{Results: []BatchResult{
			{Error: "select: bad selector \"//cache[\""},
			{Select: &SelectResponse{Count: 3, Elements: refs}},
			{Eval: &EvalResponse{Kind: "num", Num: 2500, Text: "2500"}},
			{Select: &SelectResponse{Elements: []ElementRef{}}},
			{},
		}}},
		{"batch/empty", &BatchResponse{Results: []BatchResult{}}},
		{"models", &ModelsResponse{Models: []ModelInfo{
			{Ident: "liu_gpu_server", Generation: 3, Fingerprint: "ac1e32cc", LoadedAt: at, Nodes: 812},
			{Ident: "XScluster", Generation: 1, Fingerprint: "98f8488b", LoadedAt: later, Nodes: 21536},
		}}},
		{"models/empty", &ModelsResponse{Models: []ModelInfo{}}},
		{"modelinfo", &ModelInfo{Ident: "liu_gpu_server", Generation: 3, Fingerprint: "ac1e32cc",
			LoadedAt: at, Nodes: 812}},
		{"health", &HealthResponse{Status: "ok", Resident: []string{"liu_gpu_server", "XScluster"},
			Generation: 9}},
		{"health/empty", &HealthResponse{Status: "ok", Resident: []string{}}},
		{"refresh", &RefreshResponse{Ident: "liu_gpu_server", Swapped: true, Generation: 4, Delta: true}},
		{"stats", &QueryStatsResponse{
			BucketBounds: []float64{0.0005, 0.001, 0.01, 0.1},
			Digests:      2, Recorded: 1300, Evicted: 5,
			Rows: []QueryStatRow{row, {Endpoint: "summary", Proto: "json", Calls: 1,
				BucketCounts: []int64{}, FirstSeen: at, LastSeen: at}},
			Slow: []SlowQueryJSON{
				{LatencyMS: 31.5, Endpoint: "select", Model: "liu_gpu_server", Shape: "//core[name=?]",
					Proto: "bin", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Error: true, At: later},
			},
		}},
		{"stats/empty", &QueryStatsResponse{BucketBounds: []float64{}, Rows: []QueryStatRow{},
			Slow: []SlowQueryJSON{}}},
	}
}

// TestGoldenFrames pins the bytes of every binary message against a
// checked-in file, so a codec change that moves one byte on the wire
// fails here even when encoder and decoder still agree with each other.
// It also decodes each golden payload and re-encodes it byte-identical.
// Regenerate with `go test ./internal/serve -run TestGoldenFrames
// -update` only for a deliberate, versioned wire change.
func TestGoldenFrames(t *testing.T) {
	cases := goldenFrameCases()
	var all []byte
	for _, c := range cases {
		all = append(all, encodeBin(c.m)...)
	}
	if *updateGolden {
		if err := os.WriteFile(filepath.FromSlash(goldenFramesPath), all, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(filepath.FromSlash(goldenFramesPath))
	if err != nil {
		t.Fatal(err)
	}
	rest := golden
	for _, c := range cases {
		_, _, after, err := rtmodel.DecodeEnvelope(rest)
		if err != nil {
			t.Fatalf("%s: golden envelope: %v", c.name, err)
		}
		env := rest[:len(rest)-len(after)]
		rest = after
		if got := encodeBin(c.m); !bytes.Equal(got, env) {
			t.Errorf("%s: encoding differs from golden\n got  %x\n want %x", c.name, got, env)
		}
		out := reflect.New(reflect.TypeOf(c.m).Elem()).Interface()
		if err := (&Client{}).decodeBinary(bytes.NewReader(env), "golden", ContentTypeBinary, out, nil); err != nil {
			t.Errorf("%s: decode golden: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(out, c.m) {
			t.Errorf("%s: decoded golden frame\n got  %+v\n want %+v", c.name, out, c.m)
		}
		if again := encodeBin(out.(binaryMessage)); !bytes.Equal(again, env) {
			t.Errorf("%s: decode + re-encode differs from golden\n got  %x\n want %x", c.name, again, env)
		}
	}
	if len(rest) != 0 {
		t.Errorf("golden file has %d bytes beyond the %d cases", len(rest), len(cases))
	}
}
