package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"xpdl/internal/rtmodel"
)

// TestDecodeBoundsForgedCounts forges a 16 KiB QueryStatsResponse
// whose row count, 16000, passes the remaining-bytes check but whose
// first row is garbage. The decode must fail, and must allocate at
// most 8x the payload: a count may not reserve memory for rows that
// were never sent.
func TestDecodeBoundsForgedCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	const payloadLen = 16 << 10
	var e rtmodel.Enc
	e.Uvarint(0)     // bucket bounds
	e.Uvarint(0)     // digests
	e.Varint(0)      // recorded
	e.Varint(0)      // evicted
	e.Uvarint(16000) // rows
	for len(e.Buf) < payloadLen {
		e.Buf = append(e.Buf, 0xff) // an overlong uvarint: the first row fails
	}
	payload := e.Buf
	var best uint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeWire(new(QueryStatsResponse), payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, rtmodel.ErrWire) {
			t.Fatalf("forged rows: err = %v, want an rtmodel.ErrWire error", err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < best {
			best = got
		}
	}
	if limit := uint64(8 * len(payload)); best > limit {
		t.Fatalf("forged 16000-row frame: decode allocated %d bytes, limit %d (8x the %d-byte payload)", best, limit, len(payload))
	}
}

// TestDecodeRejectsMalformedTime forges time fields that time.Parse
// rejects: the decode must fail with an rtmodel.ErrWire error instead
// of yielding a zero time. A well-formed control payload decodes.
func TestDecodeRejectsMalformedTime(t *testing.T) {
	info := func(loadedAt string) []byte {
		var e rtmodel.Enc
		e.String("liu_gpu_server")
		e.Uvarint(3)
		e.String("ac1e32cc")
		e.String(loadedAt)
		e.Uvarint(812)
		return e.Buf
	}
	slow := func(at string) []byte {
		var e rtmodel.Enc
		e.Uvarint(0) // bucket bounds
		e.Uvarint(0) // digests
		e.Varint(0)  // recorded
		e.Varint(0)  // evicted
		e.Uvarint(0) // rows
		e.Uvarint(1) // slow entries
		e.F64(31.5)
		for _, s := range []string{"select", "m", "//core", "bin", "4bf92f35"} {
			e.String(s)
		}
		e.Bool(true)
		e.String(at)
		return e.Buf
	}
	decode := func(t rtmodel.FrameType, payload []byte, out any) error {
		env := rtmodel.AppendFrame(rtmodel.AppendWireHeader(nil), t, payload)
		return (&Client{}).decodeBinary(bytes.NewReader(env), "forged", ContentTypeBinary, out, nil)
	}

	if err := decode(frameModelInfo, info("2026-03-14T15:09:26.535897932Z"), new(ModelInfo)); err != nil {
		t.Fatalf("control ModelInfo: %v", err)
	}
	for _, bad := range []string{"", "yesterday", "2026-13-14T15:09:26Z", "2026-03-14 15:09:26"} {
		var m ModelInfo
		err := decode(frameModelInfo, info(bad), &m)
		if !errors.Is(err, rtmodel.ErrWire) {
			t.Errorf("ModelInfo.LoadedAt %q: err = %v, want an rtmodel.ErrWire error (decoded %+v)", bad, err, m)
		}
		err = decode(frameStats, slow(bad), new(QueryStatsResponse))
		if !errors.Is(err, rtmodel.ErrWire) {
			t.Errorf("SlowQueryJSON.At %q: err = %v, want an rtmodel.ErrWire error", bad, err)
		}
	}
}

// newMessages returns one zero value of every binary message type.
func newMessages() []binaryMessage {
	return []binaryMessage{
		new(ErrorResponse), new(SummaryResponse), new(SelectResponse),
		new(EvalResponse), new(ElementJSON), new(EnergyResponse),
		new(TransferResponse), new(DispatchResponse), new(BatchResponse),
		new(ModelsResponse), new(ModelInfo), new(HealthResponse),
		new(RefreshResponse), new(QueryStatsResponse),
	}
}

func encodeWire(m binaryMessage) []byte {
	var e rtmodel.Enc
	m.wire(codec{e: &e})
	return e.Buf
}

// FuzzMessageDecode feeds arbitrary payloads to every message type's
// decoder. Nothing may panic, and a payload that decodes must
// re-encode to bytes that decode and re-encode identically. Bytes are
// compared rather than structs, so NaN values and time-zone
// normalisation do not trip the check.
func FuzzMessageDecode(f *testing.F) {
	for _, c := range goldenFrameCases() {
		f.Add(encodeWire(c.m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	var nan rtmodel.Enc
	nan.String("x")
	nan.F64(math.NaN())
	nan.Bool(true)
	f.Add(nan.Buf)
	f.Fuzz(func(t *testing.T, payload []byte) {
		for i, m := range newMessages() {
			if decodeWire(m, payload) != nil {
				continue
			}
			once := encodeWire(m)
			again := newMessages()[i]
			if err := decodeWire(again, once); err != nil {
				t.Fatalf("%T: re-encoded payload %x does not decode: %v", m, once, err)
			}
			if twice := encodeWire(again); !bytes.Equal(once, twice) {
				t.Fatalf("%T: re-encoding is not stable\n once  %x\n twice %x", m, once, twice)
			}
		}
	})
}

// TestJSONOnlyEndpointsIgnoreBinaryAccept pins the endpoints whose
// answers have no binary form: under "Accept: application/x-xpdl-bin"
// the sweep submission, the job list, job status, job cancel and the
// watch long poll still answer application/json.
func TestJSONOnlyEndpointsIgnoreBinaryAccept(t *testing.T) {
	srv, _ := newModelServer(t, Config{JobConcurrency: 1})
	defer srv.Close()
	do := func(method, target string, body []byte) []byte {
		t.Helper()
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		req.Header.Set("Accept", ContentTypeBinary)
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.Bytes())
		}
		if ct := mediaTypeOf(rec.Header().Get("Content-Type")); ct != "application/json" {
			t.Fatalf("%s %s: Content-Type %q, want application/json", method, target, ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %s: body is not JSON: %q", method, target, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	spec, err := json.Marshal(liuSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	var acc SweepAccepted
	if err := json.Unmarshal(do(http.MethodPost, "/v1/models/liu_gpu_server/sweep", spec), &acc); err != nil {
		t.Fatal(err)
	}
	do(http.MethodGet, "/v1/jobs", nil)
	do(http.MethodGet, "/v1/jobs/"+acc.Job, nil)
	do(http.MethodPost, "/v1/jobs/"+acc.Job+"/cancel", nil)
	do(http.MethodGet, "/v1/models/liu_gpu_server/watch?since=0", nil)
}
