package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestParseTraceparent(t *testing.T) {
	const valid = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	cases := []struct {
		name    string
		in      string
		ok      bool
		sampled bool
	}{
		{"valid sampled", valid, true, true},
		{"valid unsampled", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00", true, false},
		{"other flag bits, lsb set", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-03", true, true},
		{"empty", "", false, false},
		{"short", valid[:54], false, false},
		{"reserved version ff", "ff" + valid[2:], false, false},
		{"future version accepted", "cc" + valid[2:], true, true},
		{"future version with extra fields", "cc" + valid[2:] + "-extra", true, true},
		{"future version, junk without separator", "cc" + valid[2:] + "extra", false, false},
		{"version 00 must end at flags", valid + "-extra", false, false},
		{"uppercase hex rejected", "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01", false, false},
		{"all-zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01", false, false},
		{"all-zero span id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", false, false},
		{"misplaced dash", "000" + valid[3:], false, false},
		{"non-hex trace id", "00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01", false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseTraceparent(tc.in)
			if tc.ok != (err == nil) {
				t.Fatalf("ParseTraceparent(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			}
			if err == nil && got.Sampled != tc.sampled {
				t.Fatalf("ParseTraceparent(%q).Sampled = %v, want %v", tc.in, got.Sampled, tc.sampled)
			}
		})
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		tc := TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: i%2 == 0}
		got, err := ParseTraceparent(tc.Traceparent())
		if err != nil {
			t.Fatalf("round trip %q: %v", tc.Traceparent(), err)
		}
		if got != tc {
			t.Fatalf("round trip changed the context: %+v -> %+v", tc, got)
		}
	}
}

func TestSampler(t *testing.T) {
	if NewSampler(0).Sample() {
		t.Fatal("rate 0 sampled")
	}
	one := NewSampler(1)
	for i := 0; i < 100; i++ {
		if !one.Sample() {
			t.Fatal("rate 1 skipped a trace")
		}
	}
	half := NewSampler(0.5)
	n := 0
	const total = 20000
	for i := 0; i < total; i++ {
		if half.Sample() {
			n++
		}
	}
	if frac := float64(n) / total; frac < 0.45 || frac > 0.55 {
		t.Fatalf("rate 0.5 sampled %.3f of %d", frac, total)
	}
	var nilSampler *Sampler
	if nilSampler.Sample() || nilSampler.Rate() != 0 {
		t.Fatal("nil sampler must never sample")
	}
	if r := NewSampler(0.25).Rate(); r < 0.24 || r > 0.26 {
		t.Fatalf("Rate() = %v, want ~0.25", r)
	}
}

func TestTraceBufferBoundedNewestFirst(t *testing.T) {
	buf := NewTraceBuffer(4)
	for i := 0; i < 10; i++ {
		buf.Add(TraceRecord{TraceID: fmt.Sprintf("%032d", i), Status: 200 + i})
	}
	if buf.Len() != 4 || buf.Cap() != 4 || buf.Total() != 10 {
		t.Fatalf("Len=%d Cap=%d Total=%d", buf.Len(), buf.Cap(), buf.Total())
	}
	recent := buf.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent(0) returned %d records", len(recent))
	}
	for i, rec := range recent {
		if want := fmt.Sprintf("%032d", 9-i); rec.TraceID != want {
			t.Fatalf("Recent[%d].TraceID = %s, want %s", i, rec.TraceID, want)
		}
	}
	if got := buf.Recent(2); len(got) != 2 || got[0].TraceID != recent[0].TraceID {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if _, ok := buf.Get(fmt.Sprintf("%032d", 9)); !ok {
		t.Fatal("Get missed a retained trace")
	}
	if _, ok := buf.Get(fmt.Sprintf("%032d", 0)); ok {
		t.Fatal("Get found an evicted trace")
	}
	var nilBuf *TraceBuffer
	nilBuf.Add(TraceRecord{})
	if nilBuf.Len() != 0 || nilBuf.Recent(1) != nil {
		t.Fatal("nil buffer must be inert")
	}
}

func TestLoggerJSON(t *testing.T) {
	var b bytes.Buffer
	lg := NewLogger(&b, LevelInfo, "json")
	tr := StartTrace("req", TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}, SpanID{})
	ctx := ContextWithTrace(context.Background(), tr)

	lg.Debug(ctx, "hidden")
	lg.Info(ctx, "served", "status", 200, "duration_ms", 1.5, "path", "/v1/x", "dangling")

	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines: %q", len(lines), b.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("not JSON: %v in %q", err, lines[0])
	}
	if rec["msg"] != "served" || rec["level"] != "info" {
		t.Fatalf("record = %v", rec)
	}
	if rec["trace_id"] != tr.Context().TraceID.String() {
		t.Fatalf("trace_id = %v, want %s", rec["trace_id"], tr.Context().TraceID)
	}
	if rec["status"] != float64(200) || rec["duration_ms"] != 1.5 {
		t.Fatalf("typed fields lost: %v", rec)
	}
	if rec["dangling"] != "(MISSING)" {
		t.Fatalf("dangling key = %v", rec["dangling"])
	}
}

func TestLoggerText(t *testing.T) {
	var b bytes.Buffer
	lg := NewLogger(&b, LevelWarn, "text")
	lg.Info(context.Background(), "hidden")
	lg.Warn(context.Background(), "slow request", "endpoint", "select", "msg", "a b")
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("level filter leaked: %q", out)
	}
	if !strings.Contains(out, "WARN slow request") || !strings.Contains(out, "endpoint=select") {
		t.Fatalf("text record = %q", out)
	}
	if !strings.Contains(out, `msg="a b"`) {
		t.Fatalf("values with spaces must be quoted: %q", out)
	}
	var nilLogger *Logger
	nilLogger.Error(context.Background(), "must not panic")
}

// randomSpanTree builds a deterministic pseudo-random span tree with
// attrs and events at every level.
func randomSpanTree(rng *rand.Rand, parent *Span, depth int) {
	n := rng.Intn(3) + 1
	for i := 0; i < n; i++ {
		c := parent.Start(fmt.Sprintf("span-%d-%d", depth, i))
		if rng.Intn(2) == 0 {
			c.SetAttr(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", rng.Intn(100)))
		}
		for e := rng.Intn(3); e > 0; e-- {
			c.Event("event %d at depth %d", e, depth)
		}
		if depth < 3 && rng.Intn(2) == 0 {
			randomSpanTree(rng, c, depth+1)
		}
		c.Stop()
	}
}

func TestSpanTreeJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		root := NewLightSpan("root")
		root.SetAttr("iter", fmt.Sprint(i))
		randomSpanTree(rng, root, 0)
		root.Event("closing")
		root.Stop()

		snap := root.Snapshot()
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var back SpanSnapshot
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap, back) {
			t.Fatalf("iteration %d: snapshot did not survive the JSON round trip:\n%+v\nvs\n%+v", i, snap, back)
		}
	}
}

func TestTraceRecordRoundTrip(t *testing.T) {
	parent := NewSpanID()
	tc := TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	tr := StartTrace("GET select", tc, parent)
	_, sp := StartSpan(ContextWithTrace(context.Background(), tr), "store.load")
	sp.Event("cold load")
	sp.Stop()
	rec := tr.Finish(200, "")

	if rec.Root.Name != "client" {
		t.Fatalf("remote trace root = %q, want client wrapper", rec.Root.Name)
	}
	if len(rec.Root.Children) != 1 || rec.Root.Children[0].Name != "GET select" {
		t.Fatalf("handler span missing: %+v", rec.Root)
	}
	if rec.ParentSpanID != parent.String() {
		t.Fatalf("ParentSpanID = %q, want %s", rec.ParentSpanID, parent)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Start.Equal(rec.Start) {
		t.Fatalf("Start = %v, want %v", back.Start, rec.Start)
	}
	// JSON drops the monotonic clock reading; align it before the deep
	// comparison of everything else.
	back.Start = rec.Start
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("trace record did not survive the JSON round trip:\n%+v\nvs\n%+v", rec, back)
	}
}

func TestStartSpanWithoutTrace(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "orphan")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan on an untraced context must be a no-op")
	}
	Propagate(ctx, func(k, v string) { t.Fatalf("propagated %s=%s without a trace", k, v) })
}

func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	f.Add("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-future")
	f.Add("ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("")
	f.Add("00-zz-zz-zz")
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", s, tc)
		}
		// A successfully parsed context must survive re-encoding: the
		// wire form normalizes to version 00 and the sampled bit.
		back, err := ParseTraceparent(tc.Traceparent())
		if err != nil {
			t.Fatalf("re-encode of %q failed: %v", s, err)
		}
		if back != tc {
			t.Fatalf("re-encode changed the context: %+v -> %+v", tc, back)
		}
	})
}

// TestIDStringOneAlloc pins the hex rendering of trace and span IDs and
// its cost: one allocation, the returned string.
func TestIDStringOneAlloc(t *testing.T) {
	tid := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	sid := SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}
	if got, want := tid.String(), "4bf92f3577b34da6a3ce929d0e0e4736"; got != want {
		t.Fatalf("TraceID.String = %q, want %q", got, want)
	}
	if got, want := sid.String(), "00f067aa0ba902b7"; got != want {
		t.Fatalf("SpanID.String = %q, want %q", got, want)
	}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = tid.String() }); n != 1 {
		t.Errorf("TraceID.String: %.0f allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = sid.String() }); n != 1 {
		t.Errorf("SpanID.String: %.0f allocs, want 1", n)
	}
	_ = sink
}
