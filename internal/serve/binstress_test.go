package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xpdl/internal/rtmodel"
)

// TestBinaryHotSwapStress runs 100 concurrent binary-protocol readers
// against 50 hot swaps. Every response must be internally consistent:
// the fingerprint header, the generation header and the decoded body
// must all describe the same snapshot version — a torn read (bytes
// from one generation under headers of another) or a pooled buffer
// shared by two in-flight responses would break the version suffixes
// the stub loader embeds in every element ident. Run with -race.
func TestBinaryHotSwapStress(t *testing.T) {
	const (
		readers = 100
		swaps   = 50
		ident   = "stress"
	)
	l := newStubLoader()
	st := NewStore(l, 0)
	srv := NewServer(Config{Store: st, MaxInFlight: readers + 8})
	if _, err := st.Get(context.Background(), ident); err != nil {
		t.Fatal(err)
	}

	// versionOfFingerprint extracts <v> from "fp-<ident>-<v>".
	versionOfFingerprint := func(fp string) (string, bool) {
		v, ok := strings.CutPrefix(fp, "fp-"+ident+"-")
		return v, ok
	}

	var torn atomic.Int64
	checkSelect := func(rec *httptest.ResponseRecorder) error {
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		ft, payload, _, err := rtmodel.DecodeEnvelope(rec.Body.Bytes())
		if err != nil {
			return err
		}
		if ft != frameSelect {
			return fmt.Errorf("frame type %d", ft)
		}
		var resp SelectResponse
		if err := decodeWire(&resp, payload); err != nil {
			return err
		}
		if resp.Count != 4 || len(resp.Elements) != 4 {
			return fmt.Errorf("select answered %d/%d elements", resp.Count, len(resp.Elements))
		}
		want, ok := versionOfFingerprint(rec.Header().Get("X-Xpdl-Fingerprint"))
		if !ok {
			return fmt.Errorf("malformed fingerprint header %q", rec.Header().Get("X-Xpdl-Fingerprint"))
		}
		for i, e := range resp.Elements {
			wantID := fmt.Sprintf("%s-core%d-v%s", ident, i, want)
			if e.Ident != wantID {
				torn.Add(1)
				return fmt.Errorf("element %d is %q, fingerprint promises %q", i, e.Ident, wantID)
			}
		}
		return nil
	}

	checkSummary := func(rec *httptest.ResponseRecorder) error {
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		ft, payload, _, err := rtmodel.DecodeEnvelope(rec.Body.Bytes())
		if err != nil {
			return err
		}
		if ft != frameSummary {
			return fmt.Errorf("frame type %d", ft)
		}
		var resp SummaryResponse
		if err := decodeWire(&resp, payload); err != nil {
			return err
		}
		if resp.Cores != 4 {
			return fmt.Errorf("summary answered %d cores", resp.Cores)
		}
		return nil
	}

	done := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-done:
					return
				default:
				}
				var target string
				check := checkSelect
				if j%3 == 0 {
					target = "/v1/models/" + ident + "/summary"
					check = checkSummary
				} else {
					target = "/v1/models/" + ident + "/select?q=//core"
				}
				req := httptest.NewRequest(http.MethodGet, target, nil)
				req.Header.Set("Accept", ContentTypeBinary)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if err := check(rec); err != nil {
					select {
					case errCh <- fmt.Errorf("reader %d request %d (%s): %w", n, j, target, err):
					default:
					}
					return
				}
			}
		}(i)
	}

	for i := 0; i < swaps; i++ {
		l.bumpVersion(ident)
		if _, err := st.Refresh(context.Background(), ident); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn reads observed", n)
	}

	// The batch path shares the pooled sub-frame encoder; hammer it too,
	// JSON-decoding nothing — the decoded structs must match the final
	// version exactly.
	body, _ := json.Marshal(BatchRequest{Ops: []BatchOp{
		{Op: "select", Selector: "//core"},
		{Op: "eval", Expr: "num_cores()"},
	}})
	errCh2 := make(chan error, readers)
	var bwg sync.WaitGroup
	for i := 0; i < readers; i++ {
		bwg.Add(1)
		go func() {
			defer bwg.Done()
			for j := 0; j < 20; j++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/models/"+ident+"/batch", strings.NewReader(string(body)))
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("Accept", ContentTypeBinary)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				ft, payload, _, err := rtmodel.DecodeEnvelope(rec.Body.Bytes())
				if err != nil || ft != frameBatch {
					select {
					case errCh2 <- fmt.Errorf("batch envelope: %v (frame %d)", err, ft):
					default:
					}
					return
				}
				var resp BatchResponse
				if err := decodeWire(&resp, payload); err != nil {
					select {
					case errCh2 <- err:
					default:
					}
					return
				}
				if len(resp.Results) != 2 || resp.Results[0].Select == nil || resp.Results[1].Eval == nil {
					select {
					case errCh2 <- fmt.Errorf("batch results malformed: %+v", resp.Results):
					default:
					}
					return
				}
			}
		}()
	}
	bwg.Wait()
	close(errCh2)
	for err := range errCh2 {
		t.Error(err)
	}
}

// TestExportFirstAccessRace fires 16 concurrent first GET /json
// requests, alternating JSON and binary, at one fresh generation: the
// lazy export render must hand every one of them the same body, equal
// to a direct render of the model. After a hot swap the next /json
// must come from the new generation, not from the cached bytes of the
// old one. Run with -race.
func TestExportFirstAccessRace(t *testing.T) {
	const (
		clients = 16
		ident   = "export"
		target  = "/v1/models/" + ident + "/json"
	)
	l := newStubLoader()
	st := NewStore(l, 0)
	srv := NewServer(Config{Store: st, MaxInFlight: clients + 8})
	ctx := context.Background()
	if _, err := st.Get(ctx, ident); err != nil {
		t.Fatal(err)
	}

	// get fetches /json in one protocol and returns the export bytes
	// and the answering generation.
	get := func(bin bool) ([]byte, string, error) {
		rec := doProto(t, srv, http.MethodGet, target, nil, bin)
		if rec.Code != http.StatusOK {
			return nil, "", fmt.Errorf("bin=%v: status %d: %s", bin, rec.Code, rec.Body.String())
		}
		gen := rec.Header().Get("X-Xpdl-Generation")
		if !bin {
			return rec.Body.Bytes(), gen, nil
		}
		ft, payload, _, err := rtmodel.DecodeEnvelope(rec.Body.Bytes())
		if err != nil {
			return nil, "", err
		}
		if ft != frameRawJSON {
			return nil, "", fmt.Errorf("frame type %d, want %d", ft, frameRawJSON)
		}
		return payload, gen, nil
	}
	// render is the oracle: the snapshot's model exported directly.
	render := func(snap *Snapshot) []byte {
		var b bytes.Buffer
		if err := snap.Session.Model().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	first, _ := st.Peek(ident)
	want := render(first)
	bodies := make([][]byte, clients)
	gens := make([]string, clients)
	errs := make([]error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			bodies[i], gens[i], errs[i] = get(i%2 == 1)
		}(i)
	}
	close(start)
	wg.Wait()
	firstGen := strconv.FormatUint(first.Gen, 10)
	for i := range bodies {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if gens[i] != firstGen {
			t.Fatalf("client %d: answered by generation %s, want %s", i, gens[i], firstGen)
		}
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("client %d (bin=%v): export differs from a direct render\ngot:  %s\nwant: %s",
				i, i%2 == 1, bodies[i], want)
		}
	}

	l.bumpVersion(ident)
	swapped, err := st.Refresh(ctx, ident)
	if err != nil || !swapped {
		t.Fatalf("hot swap: swapped=%v err=%v", swapped, err)
	}
	next, _ := st.Peek(ident)
	wantNext := render(next)
	if bytes.Equal(wantNext, want) {
		t.Fatal("stub generations render the same export; the swap check would be vacuous")
	}
	for _, bin := range []bool{false, true} {
		body, gen, err := get(bin)
		if err != nil {
			t.Fatal(err)
		}
		if gen != strconv.FormatUint(next.Gen, 10) {
			t.Fatalf("after swap (bin=%v): answered by generation %s, want %d", bin, gen, next.Gen)
		}
		if !bytes.Equal(body, wantNext) {
			t.Fatalf("after swap (bin=%v): export is not the new generation's\ngot:  %s\nwant: %s", bin, body, wantNext)
		}
	}
}
