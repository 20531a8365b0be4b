package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xpdl/internal/core"
	"xpdl/internal/scenario"
)

func liuSweepSpec() scenario.Spec {
	return scenario.Spec{
		Params: []scenario.ParamSpec{
			{Name: "L1size", Target: "gpu1", Unit: "KB", Values: []string{"16", "32", "48"}},
			{Name: "shmsize", Target: "gpu1", Unit: "KB", Values: []string{"16", "32", "48"}},
		},
		Objectives: []scenario.ObjectiveSpec{
			{Name: "static_w", Kind: scenario.KindStaticPower},
			{Name: "shm", Expr: "shmsize", Sense: scenario.SenseMax},
		},
	}
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, c *Client, id string, withPoints bool) JobInfo {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		info, err := c.JobStatus(context.Background(), id, withPoints)
		if err != nil {
			t.Fatal(err)
		}
		if jobTerminal(info.State) {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobInfo{}
}

func TestSweepJobEndToEnd(t *testing.T) {
	srv, _ := newModelServer(t, Config{SweepWorkers: 2, JobConcurrency: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	acc, err := c.Sweep(ctx, "liu_gpu_server", liuSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	if acc.Job == "" || acc.Model != "liu_gpu_server" || acc.Total != 9 {
		t.Fatalf("accepted = %+v", acc)
	}

	info := waitJob(t, c, acc.Job, true)
	if info.State != JobStateDone {
		t.Fatalf("job ended %s: %s", info.State, info.Error)
	}
	if info.Result == nil {
		t.Fatal("terminal job has no result")
	}
	res := info.Result
	if res.Total != 9 || res.Evaluated != 3 || res.Skipped != 6 {
		t.Fatalf("totals = %d/%d/%d", res.Total, res.Evaluated, res.Skipped)
	}
	if len(res.Points) != 9 {
		t.Fatalf("withPoints returned %d points", len(res.Points))
	}
	if !reflect.DeepEqual(res.Front, []int{2}) {
		t.Fatalf("front = %v, want [2]", res.Front)
	}
	if info.Done != 9 {
		t.Fatalf("done counter = %d, want 9", info.Done)
	}

	// Without ?points=1 the result is summarized.
	slim, err := c.JobStatus(ctx, acc.Job, false)
	if err != nil {
		t.Fatal(err)
	}
	if slim.Result == nil || slim.Result.Points != nil {
		t.Fatalf("slim status should strip points: %+v", slim.Result)
	}

	// The job shows up in the listing.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs.Jobs) != 1 || jobs.Jobs[0].ID != acc.Job {
		t.Fatalf("jobs = %+v", jobs.Jobs)
	}
}

func TestSweepJobStreamReplayAndLive(t *testing.T) {
	srv, _ := newModelServer(t, Config{JobConcurrency: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	acc, err := c.Sweep(ctx, "liu_gpu_server", liuSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	var events []JobEvent
	if err := c.JobStream(ctx, acc.Job, 0, func(ev JobEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 { // 9 points + terminal
		t.Fatalf("streamed %d events, want 10", len(events))
	}
	for i, ev := range events[:9] {
		if ev.Type != "point" || ev.Point == nil || ev.Seq != uint64(i+1) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	last := events[9]
	if last.Type != "done" || last.Done != 9 || last.Total != 9 {
		t.Fatalf("terminal event = %+v", last)
	}

	// A late subscriber resuming mid-stream replays only the tail.
	var tail []JobEvent
	if err := c.JobStream(ctx, acc.Job, 7, func(ev JobEvent) error {
		tail = append(tail, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || tail[0].Seq != 8 {
		t.Fatalf("tail replay = %+v", tail)
	}

	// Replayed and live events agree byte for byte.
	a, _ := json.Marshal(events[7:])
	b, _ := json.Marshal(tail)
	if string(a) != string(b) {
		t.Fatalf("replay diverged from live stream:\n%s\n%s", a, b)
	}
}

func TestSweepJobCancel(t *testing.T) {
	srv, _ := newModelServer(t, Config{JobConcurrency: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	// Occupy the single runner with a big slow sweep, then queue another
	// and cancel it before it starts.
	slow := scenario.Spec{
		Params: []scenario.ParamSpec{
			{Name: "L1size", Target: "gpu1", Unit: "KB", Values: []string{"16", "32", "48"}},
			{Name: "shmsize", Target: "gpu1", Unit: "KB", Values: []string{"16", "32", "48"}},
			{Name: "f", Values: manyValues(40)},
		},
		Objectives: []scenario.ObjectiveSpec{{Name: "o", Expr: "f"}},
	}
	first, err := c.Sweep(ctx, "liu_gpu_server", slow)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Sweep(ctx, "liu_gpu_server", liuSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.JobCancel(ctx, second.Job)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != JobStateCanceled {
		t.Fatalf("queued job after cancel = %s", info.State)
	}
	// Cancel the running one too; it must reach a terminal state.
	if _, err := c.JobCancel(ctx, first.Job); err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, c, first.Job, false)
	if got.State != JobStateCanceled && got.State != JobStateDone {
		t.Fatalf("running job after cancel = %s (%s)", got.State, got.Error)
	}

	if _, err := c.JobCancel(ctx, "job-999"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
}

func manyValues(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "1" + string(rune('0'+i%10)) + "." + string(rune('0'+i/10))
	}
	return out
}

func TestSweepRejectsBadRequests(t *testing.T) {
	srv, _ := newModelServer(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	// Unknown model → 404.
	if _, err := c.Sweep(ctx, "no_such_model", liuSweepSpec()); err == nil {
		t.Fatal("sweep of unknown model accepted")
	} else {
		var st *apiStatusError
		if !errors.As(err, &st) || st.Status != 404 {
			t.Fatalf("want 404, got %v", err)
		}
	}
	// Invalid spec → 400.
	if _, err := c.Sweep(ctx, "liu_gpu_server", scenario.Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	} else {
		var st *apiStatusError
		if !errors.As(err, &st) || st.Status != 400 {
			t.Fatalf("want 400, got %v", err)
		}
	}
	// Unknown job → 404.
	if _, err := c.JobStatus(ctx, "job-42", false); err == nil {
		t.Fatal("status of unknown job succeeded")
	}
}

func TestSweepQueueBound(t *testing.T) {
	srv, _ := newModelServer(t, Config{JobConcurrency: 1, JobQueue: 1, MaxJobs: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	// Fill the single runner plus the single queue slot with sweeps big
	// enough to still be running, then overflow. The first sweep may start
	// immediately, so submit a few and expect one to bounce with 429.
	big := scenario.Spec{
		Params: []scenario.ParamSpec{
			{Name: "L1size", Target: "gpu1", Unit: "KB", Values: []string{"16", "32", "48"}},
			{Name: "shmsize", Target: "gpu1", Unit: "KB", Values: []string{"16", "32", "48"}},
			{Name: "f", Values: manyValues(60)},
		},
		Objectives: []scenario.ObjectiveSpec{{Name: "o", Expr: "f"}},
	}
	var rejected bool
	for i := 0; i < 6; i++ {
		_, err := c.Sweep(ctx, "liu_gpu_server", big)
		if err != nil {
			var st *apiStatusError
			if !errors.As(err, &st) || st.Status != 429 {
				t.Fatalf("submit %d: want 429, got %v", i, err)
			}
			rejected = true
			break
		}
	}
	if !rejected {
		t.Fatal("queue never filled; bound not enforced")
	}
}

func TestSweepUnavailableWithoutRepository(t *testing.T) {
	// A stub loader exposes no descriptor repository, so the subsystem
	// stays disabled and the endpoints answer 501.
	st := NewStore(newStubLoader(), 0)
	srv := NewServer(Config{Store: st})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := c.Sweep(ctx, "m", liuSweepSpec()); err == nil {
		t.Fatal("sweep accepted without a repository")
	} else {
		var ae *apiStatusError
		if !errors.As(err, &ae) || ae.Status != 501 {
			t.Fatalf("want 501, got %v", err)
		}
	}
	if _, err := c.Jobs(ctx); err == nil {
		t.Fatal("jobs listing succeeded without a repository")
	}
}

func TestJobTTLPruning(t *testing.T) {
	srv, _ := newModelServer(t, Config{JobTTL: time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	acc, err := c.Sweep(ctx, "liu_gpu_server", liuSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, acc.Job, false)
	time.Sleep(5 * time.Millisecond)
	// Listing prunes lazily; the finished job is past its TTL now.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs.Jobs {
		if j.ID == acc.Job {
			t.Fatalf("job %s survived its TTL: %+v", acc.Job, j)
		}
	}
	if _, err := c.JobStatus(ctx, acc.Job, false); err == nil {
		t.Fatal("pruned job still answers status")
	}
}

func TestServerCloseDrainsJobs(t *testing.T) {
	srv, _ := newModelServer(t, Config{JobConcurrency: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	// Queue more work than one runner clears instantly, then close.
	var ids []string
	for i := 0; i < 3; i++ {
		acc, err := c.Sweep(ctx, "liu_gpu_server", liuSweepSpec())
		if err != nil {
			break // queue bound is fine here
		}
		ids = append(ids, acc.Job)
	}
	srv.Close()
	// Every retained job must be terminal after drain.
	for _, id := range ids {
		info, err := c.JobStatus(ctx, id, false)
		if err != nil {
			t.Fatal(err)
		}
		if !jobTerminal(info.State) {
			t.Fatalf("job %s not terminal after Close: %s", id, info.State)
		}
	}
	// New submissions are refused (the queue is stopped; workers gone).
	if acc, err := c.Sweep(ctx, "liu_gpu_server", liuSweepSpec()); err == nil {
		info := waitJobState(c, acc.Job, 500*time.Millisecond)
		if info.State == JobStateRunning || info.State == JobStateDone {
			t.Fatalf("post-Close sweep ran: %+v", info)
		}
	}
}

// waitJobState polls briefly without failing the test.
func waitJobState(c *Client, id string, d time.Duration) JobInfo {
	deadline := time.Now().Add(d)
	var info JobInfo
	for time.Now().Before(deadline) {
		var err error
		info, err = c.JobStatus(context.Background(), id, false)
		if err != nil {
			return info
		}
		if jobTerminal(info.State) {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	return info
}

// TestSweepDeterministicAcrossRuns pins the CI-facing guarantee: the
// same spec submitted twice yields identical point sets and fronts.
func TestSweepDeterministicAcrossRuns(t *testing.T) {
	srv, _ := newModelServer(t, Config{SweepWorkers: 4, JobConcurrency: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	run := func() *scenario.Result {
		acc, err := c.Sweep(ctx, "liu_gpu_server", liuSweepSpec())
		if err != nil {
			t.Fatal(err)
		}
		info := waitJob(t, c, acc.Job, true)
		if info.State != JobStateDone {
			t.Fatalf("job %s: %s", info.State, info.Error)
		}
		return info.Result
	}
	a, _ := json.Marshal(run())
	b, _ := json.Marshal(run())
	if string(a) != string(b) {
		t.Fatalf("two identical sweeps diverged:\n%s\n%s", a, b)
	}
}

// TestSweepRaceWithHotSwap races sweep jobs against model hot swaps:
// a writer repeatedly rewrites the swept model on disk and refreshes
// the store while clients submit and stream sweeps. Run with -race;
// the assertion is simply that every job terminates cleanly and no
// data race fires between the engine's repository reads and the
// loader invalidation/refresh path.
func TestSweepRaceWithHotSwap(t *testing.T) {
	dir := copyModels(t)
	loader, err := NewToolchainLoader(core.Options{SearchPaths: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(loader, 0)
	srv := NewServer(Config{Store: st, SweepWorkers: 2, JobConcurrency: 2, JobQueue: 32})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	path := filepath.Join(dir, "system", "liu_gpu_server.xpdl")
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	stopSwap := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopSwap:
				return
			default:
			}
			// Alternate between the pristine file and one with an extra
			// trailing comment so the fingerprint actually changes.
			body := orig
			if i%2 == 1 {
				body = append(append([]byte{}, orig...), []byte("<!-- swap -->\n")...)
			}
			// Atomic swap: a plain WriteFile truncates in place and a
			// concurrent load can observe an empty document.
			tmp := path + ".tmp"
			if err := os.WriteFile(tmp, body, 0o644); err != nil {
				t.Error(err)
				return
			}
			if err := os.Rename(tmp, path); err != nil {
				t.Error(err)
				return
			}
			st.InvalidateLoader()
			if _, err := st.RefreshDetail(ctx, "liu_gpu_server"); err != nil {
				t.Errorf("refresh: %v", err)
				return
			}
		}
	}()

	var cliWG sync.WaitGroup
	for g := 0; g < 3; g++ {
		cliWG.Add(1)
		go func() {
			defer cliWG.Done()
			for i := 0; i < 5; i++ {
				acc, err := c.Sweep(ctx, "liu_gpu_server", liuSweepSpec())
				if err != nil {
					t.Errorf("sweep: %v", err)
					return
				}
				if err := c.JobStream(ctx, acc.Job, 0, func(JobEvent) error { return nil }); err != nil {
					t.Errorf("stream: %v", err)
					return
				}
				info, err := c.JobStatus(ctx, acc.Job, false)
				if err != nil {
					t.Errorf("status: %v", err)
					return
				}
				if !jobTerminal(info.State) {
					t.Errorf("job %s not terminal after stream end: %s", acc.Job, info.State)
					return
				}
				if info.State == JobStateFailed {
					t.Errorf("job %s failed: %s", acc.Job, info.Error)
					return
				}
			}
		}()
	}
	cliWG.Wait()
	close(stopSwap)
	swapWG.Wait()
}

// dropWriter kills the connection — panic with http.ErrAbortHandler —
// right before the write carrying the (allow+1)th frame that contains
// marker, so the client sees a dropped connection, not an end of stream.
type dropWriter struct {
	http.ResponseWriter
	marker string
	allow  int
}

func (w *dropWriter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(w.marker)) {
		if w.allow--; w.allow < 0 {
			panic(http.ErrAbortHandler)
		}
	}
	return w.ResponseWriter.Write(p)
}

func (w *dropWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

func (w *dropWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// TestSweepJobStreamResume drops the job stream mid-sweep: JobStream
// must reconnect with Last-Event-ID and deliver every point exactly
// once, then the terminal event, and only then return nil.
func TestSweepJobStreamResume(t *testing.T) {
	const allowFirst = 5 // points delivered before the first connection dies
	srv, _ := newModelServer(t, Config{JobConcurrency: 1, SweepWorkers: 1})
	defer srv.Close()
	var conns atomic.Int64
	var resumeID atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			switch conns.Add(1) {
			case 1:
				srv.ServeHTTP(&dropWriter{ResponseWriter: w, marker: "event: point", allow: allowFirst}, r)
				return
			case 2:
				resumeID.Store(r.Header.Get("Last-Event-ID"))
			}
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	spec := liuSweepSpec()
	spec.Params = append(spec.Params, scenario.ParamSpec{Name: "f", Values: manyValues(10)})
	acc, err := c.Sweep(ctx, "liu_gpu_server", spec)
	if err != nil {
		t.Fatal(err)
	}
	var events []JobEvent
	if err := c.JobStream(ctx, acc.Job, 0, func(ev JobEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 2 {
		t.Fatalf("job stream used %d connections, want 2 (one drop, one resume)", n)
	}
	if id, _ := resumeID.Load().(string); id != fmt.Sprint(allowFirst) {
		t.Fatalf("reconnect sent Last-Event-ID %q, want %q", id, fmt.Sprint(allowFirst))
	}
	if len(events) != acc.Total+1 {
		t.Fatalf("streamed %d events, want %d points + terminal", len(events), acc.Total)
	}
	seen := map[int]bool{}
	for i, ev := range events[:acc.Total] {
		if ev.Type != "point" || ev.Point == nil || ev.Seq != uint64(i+1) {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if seen[ev.Point.Index] {
			t.Fatalf("point %d delivered twice", ev.Point.Index)
		}
		seen[ev.Point.Index] = true
	}
	if last := events[acc.Total]; last.Type != "done" || last.Done != acc.Total {
		t.Fatalf("terminal event = %+v", last)
	}
}

// TestJobListNewestFirst pins the listing order on the creation
// sequence: the tenth job must list before the ninth, which a string
// sort of the IDs gets wrong.
func TestJobListNewestFirst(t *testing.T) {
	srv, _ := newModelServer(t, Config{JobConcurrency: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	var ids []string
	for i := 0; i < 11; i++ {
		acc, err := c.Sweep(ctx, "liu_gpu_server", liuSweepSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, acc.Job)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs.Jobs) != len(ids) {
		t.Fatalf("listed %d jobs, want %d", len(jobs.Jobs), len(ids))
	}
	for i, j := range jobs.Jobs {
		if want := ids[len(ids)-1-i]; j.ID != want {
			t.Fatalf("listing position %d is %s, want %s (newest first)", i, j.ID, want)
		}
	}
}
