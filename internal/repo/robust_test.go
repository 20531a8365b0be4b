package repo

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"xpdl/internal/repo/faulty"
)

const k20c = `<device name="Nvidia_K20c" extends="Nvidia_Kepler" compute_capability="3.5"/>`

// fastRetries returns a FetchConfig whose backoff sleeps are recorded
// instead of slept, so retry tests run instantly and deterministically.
func fastRetries(attempts int) (FetchConfig, *[]time.Duration) {
	var mu sync.Mutex
	slept := &[]time.Duration{}
	cfg := FetchConfig{
		MaxAttempts: attempts,
		wait: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			*slept = append(*slept, d)
			mu.Unlock()
			return ctx.Err()
		},
		jitter: func() float64 { return 0.5 },
	}
	return cfg, slept
}

func newRepo(t *testing.T, cfg FetchConfig, remotes ...string) *Repository {
	t.Helper()
	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetFetchConfig(cfg); err != nil {
		t.Fatal(err)
	}
	for _, base := range remotes {
		r.AddRemote(base)
	}
	return r
}

// The acceptance scenario: a remote that fails twice recovers on the
// third attempt, and the client rides out the failures with retries.
func TestRetrySucceedsOnThirdAttempt(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	srv.Script("Nvidia_K20c", faulty.Status(500), faulty.Status(500))
	cfg, slept := fastRetries(3)
	r := newRepo(t, cfg, srv.URL)

	c, err := r.Load("Nvidia_K20c")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Nvidia_K20c" {
		t.Fatalf("loaded %s", c)
	}
	if n := srv.RequestsFor("Nvidia_K20c"); n != 3 {
		t.Fatalf("upstream requests = %d, want 3", n)
	}
	st := r.Stats()
	if st.Retries != 2 || st.Failures != 2 || st.RemoteFetches != 1 || st.Loads != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(*slept) != 2 {
		t.Fatalf("backoff sleeps = %v, want 2", *slept)
	}
	// Exponential: the second backoff is twice the first (fixed jitter).
	if (*slept)[1] != 2*(*slept)[0] {
		t.Fatalf("backoff not exponential: %v", *slept)
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	srv.Script("Nvidia_K20c", faulty.Status(http.StatusForbidden))
	cfg, _ := fastRetries(5)
	r := newRepo(t, cfg, srv.URL)

	if _, err := r.Load("Nvidia_K20c"); err == nil {
		t.Fatal("403 should fail the load")
	}
	if n := srv.RequestsFor("Nvidia_K20c"); n != 1 {
		t.Fatalf("4xx was retried: %d requests", n)
	}
	st := r.Stats()
	if st.Retries != 0 || st.Misses != 1 || st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestThrottlingIsRetried(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	srv.Script("Nvidia_K20c", faulty.Status(http.StatusTooManyRequests))
	cfg, _ := fastRetries(3)
	r := newRepo(t, cfg, srv.URL)

	if _, err := r.Load("Nvidia_K20c"); err != nil {
		t.Fatal(err)
	}
	if n := srv.RequestsFor("Nvidia_K20c"); n != 2 {
		t.Fatalf("requests = %d, want 2 (429 then 200)", n)
	}
}

func TestDroppedConnectionIsRetried(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	srv.Script("Nvidia_K20c", faulty.Drop())
	cfg, _ := fastRetries(3)
	r := newRepo(t, cfg, srv.URL)

	if _, err := r.Load("Nvidia_K20c"); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Retries != 1 || st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTruncatedBodyIsRetried(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	srv.Script("Nvidia_K20c", faulty.Truncate())
	cfg, _ := fastRetries(3)
	r := newRepo(t, cfg, srv.URL)

	c, err := r.Load("Nvidia_K20c")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Nvidia_K20c" {
		t.Fatalf("loaded %s", c)
	}
	if st := r.Stats(); st.Retries != 1 || st.RemoteFetches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCorruptXMLIsPermanent(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	srv.Script("Nvidia_K20c", faulty.Corrupt())
	cfg, _ := fastRetries(5)
	r := newRepo(t, cfg, srv.URL)

	if _, err := r.Load("Nvidia_K20c"); err == nil {
		t.Fatal("corrupt descriptor accepted")
	}
	if n := srv.RequestsFor("Nvidia_K20c"); n != 1 {
		t.Fatalf("parse failure was retried: %d requests", n)
	}
	if r.Has("Nvidia_K20c") {
		t.Fatal("corrupt descriptor cached")
	}
}

func TestPerAttemptTimeout(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	srv.Script("Nvidia_K20c", faulty.Delay(2*time.Second))
	cfg, _ := fastRetries(2)
	cfg.PerAttemptTimeout = 50 * time.Millisecond
	r := newRepo(t, cfg, srv.URL)

	start := time.Now()
	if _, err := r.Load("Nvidia_K20c"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("hung remote absorbed the retry budget: %v", d)
	}
	if st := r.Stats(); st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLoadContextCancel(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	srv.Script("Nvidia_K20c", faulty.Status(500), faulty.Status(500), faulty.Status(500))
	r := newRepo(t, FetchConfig{MaxAttempts: 4, BaseBackoff: time.Hour, MaxBackoff: time.Hour}, srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.LoadContext(ctx, "Nvidia_K20c")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let it enter the hour-long backoff
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelation did not abort the backoff sleep")
	}
}

// The acceptance scenario: 100 concurrent Loads of one identifier
// produce exactly one upstream request; everyone else coalesces onto
// the in-flight fetch or hits the cache.
func TestSingleflightCoalesces(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	release := make(chan struct{})
	srv.Script("Nvidia_K20c", faulty.Hold(release))
	r := newRepo(t, DefaultFetchConfig(), srv.URL)

	const n = 100
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Load("Nvidia_K20c")
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the loaders pile up behind the held fetch
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
	if got := srv.RequestsFor("Nvidia_K20c"); got != 1 {
		t.Fatalf("upstream requests = %d, want exactly 1", got)
	}
	st := r.Stats()
	if st.Loads != n {
		t.Fatalf("Loads = %d, want %d", st.Loads, n)
	}
	if st.Coalesced+st.CacheHits != n-1 {
		t.Fatalf("coalesced(%d) + cache hits(%d) != %d; stats = %+v",
			st.Coalesced, st.CacheHits, n-1, st)
	}
	if st.Coalesced == 0 {
		t.Fatalf("no load was coalesced; stats = %+v", st)
	}
}

// The acceptance scenario: a second repository start against an
// unchanged remote revalidates with If-None-Match and serves the
// descriptor from the disk cache after a 304.
func TestDiskCacheRevalidation(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	cacheDir := t.TempDir()
	cfg := DefaultFetchConfig()
	cfg.CacheDir = cacheDir

	// First start: cold fetch, body + validators stored on disk.
	r1 := newRepo(t, cfg, srv.URL)
	if _, err := r1.Load("Nvidia_K20c"); err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.RemoteFetches != 1 || st.NotModified != 0 {
		t.Fatalf("first start stats = %+v", st)
	}

	// Second start: conditional fetch, served from disk after a 304.
	r2 := newRepo(t, cfg, srv.URL)
	c, err := r2.Load("Nvidia_K20c")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Nvidia_K20c" {
		t.Fatalf("loaded %s", c)
	}
	if st := r2.Stats(); st.RemoteFetches != 0 || st.NotModified != 1 {
		t.Fatalf("second start stats = %+v", st)
	}
	reqs := srv.Requests()
	if len(reqs) != 2 {
		t.Fatalf("request log = %+v", reqs)
	}
	if reqs[0].IfNoneMatch != "" || reqs[0].Status != 200 {
		t.Fatalf("cold fetch logged as %+v", reqs[0])
	}
	if reqs[1].IfNoneMatch == "" || reqs[1].Status != 304 {
		t.Fatalf("revalidation logged as %+v", reqs[1])
	}
}

func TestDiskCacheChangedRemoteRefetches(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Nvidia_K20c": k20c})
	cfg := DefaultFetchConfig()
	cfg.CacheDir = t.TempDir()

	r1 := newRepo(t, cfg, srv.URL)
	if _, err := r1.Load("Nvidia_K20c"); err != nil {
		t.Fatal(err)
	}
	// The manufacturer ships an update: the ETag no longer matches.
	srv.SetBody("Nvidia_K20c", `<device name="Nvidia_K20c" compute_capability="3.7"/>`)
	r2 := newRepo(t, cfg, srv.URL)
	c, err := r2.Load("Nvidia_K20c")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Attr("compute_capability"); !ok {
		t.Fatal("updated descriptor not served")
	}
	if st := r2.Stats(); st.RemoteFetches != 1 || st.NotModified != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailoverFallsThrough(t *testing.T) {
	empty := faulty.NewServer(t, nil) // knows no descriptors: answers 404
	good := faulty.NewServer(t, map[string]string{"M": `<cpu name="M"/>`})
	cfg, _ := fastRetries(3)
	r := newRepo(t, cfg, empty.URL, good.URL)

	if _, err := r.Load("M"); err != nil {
		t.Fatal(err)
	}
	if n := empty.RequestsFor("M"); n != 1 {
		t.Fatalf("empty remote saw %d requests, want 1 (404 is permanent)", n)
	}
	if n := good.RequestsFor("M"); n != 1 {
		t.Fatalf("good remote saw %d requests, want 1", n)
	}
}

func TestFailoverHedgesPastSlowRemote(t *testing.T) {
	slow := faulty.NewServer(t, map[string]string{"M": `<cpu name="M"/>`})
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // unblock before srv.Close
	slow.Script("M", faulty.Hold(release))
	fast := faulty.NewServer(t, map[string]string{"M": `<cpu name="M"/>`})
	cfg := DefaultFetchConfig()
	cfg.HedgeDelay = 10 * time.Millisecond
	r := newRepo(t, cfg, slow.URL, fast.URL)

	start := time.Now()
	if _, err := r.Load("M"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("hedge did not race past the slow remote: %v", d)
	}
	if n := fast.RequestsFor("M"); n != 1 {
		t.Fatalf("fast remote saw %d requests", n)
	}
}

func TestAllRemotesFailingJoinsErrors(t *testing.T) {
	a := faulty.NewServer(t, map[string]string{"M": `<cpu name="M"/>`})
	a.Script("M", faulty.Status(500), faulty.Status(500), faulty.Status(500))
	b := faulty.NewServer(t, nil)
	cfg, _ := fastRetries(3)
	r := newRepo(t, cfg, a.URL, b.URL)

	_, err := r.Load("M")
	if err == nil {
		t.Fatal("load should fail when every remote fails")
	}
	msg := err.Error()
	if !strings.Contains(msg, "not found") ||
		!strings.Contains(msg, "Internal Server Error") ||
		!strings.Contains(msg, "Not Found") {
		t.Fatalf("error does not join both remote failures: %v", err)
	}
}

func TestBackoffSchedule(t *testing.T) {
	cfg := FetchConfig{
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
	}.withDefaults()
	cfg.jitter = func() float64 { return 1 } // worst case: full jitter
	// Exponential doubling, capped at MaxBackoff.
	for i, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second, 2 * time.Second,
	} {
		if got := cfg.backoffFor(i, errors.New("boom")); got != want {
			t.Errorf("backoffFor(%d) = %v, want %v", i, got, want)
		}
	}
	// A server-provided Retry-After overrides the schedule but is capped.
	ra := &statusError{code: 429, retryAfter: 1 * time.Second}
	if got := cfg.backoffFor(0, ra); got != 1*time.Second {
		t.Errorf("Retry-After ignored: %v", got)
	}
	ra.retryAfter = time.Minute
	if got := cfg.backoffFor(0, ra); got != cfg.MaxBackoff {
		t.Errorf("Retry-After not capped: %v", got)
	}
}

// TestRetryAfterForms pins RetryAfter on both RFC 9110 forms of the
// header: delta-seconds and HTTP-date (the latter used to be dropped).
// Values that are neither form read as no hint; the routing tier once
// had its own parser that read "7s" and "1.5" as whole seconds.
func TestRetryAfterForms(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	for _, tc := range []struct {
		name     string
		header   string
		min, max time.Duration
	}{
		{"absent header", "", 0, 0},
		{"delta-seconds", "7", 7 * time.Second, 7 * time.Second},
		{"negative seconds", "-3", 0, 0},
		{"garbage", "soon", 0, 0},
		{"unit suffix", "7s", 0, 0},
		{"fractional seconds", "1.5", 0, 0},
		{"explicit plus sign", "+7", 7 * time.Second, 7 * time.Second},
		// HTTP-date ~30s out parses to a positive duration near 30s.
		{"HTTP-date", future, 25*time.Second + 1, 31 * time.Second},
		// A date in the past means no extra delay.
		{"past HTTP-date", past, 0, 0},
	} {
		if got := RetryAfter(mk(tc.header)); got < tc.min || got > tc.max {
			t.Errorf("%s (%q): %v, want in [%v, %v]", tc.name, tc.header, got, tc.min, tc.max)
		}
	}
	// End to end: an HTTP-date Retry-After flows through backoffFor and
	// is clamped to MaxBackoff like the seconds form.
	cfg := FetchConfig{MaxBackoff: 2 * time.Second}.withDefaults()
	farOut := time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	se := &statusError{code: 429, retryAfter: RetryAfter(mk(farOut))}
	if got := cfg.backoffFor(0, se); got != cfg.MaxBackoff {
		t.Errorf("HTTP-date Retry-After not capped: %v", got)
	}
}

func TestMissAccounting(t *testing.T) {
	r, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load("nope"); err == nil {
		t.Fatal("expected miss")
	}
	if _, err := r.Load("nope"); err == nil {
		t.Fatal("expected miss")
	}
	st := r.Stats()
	if st.Misses != 2 || st.Loads != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPrefetchAggregatesAllErrors(t *testing.T) {
	srv := faulty.NewServer(t, map[string]string{"Good": `<cpu name="Good"/>`})
	cfg, _ := fastRetries(1)
	r := newRepo(t, cfg, srv.URL)

	err := r.Prefetch([]string{"Good", "missing1", "missing2"}, 4)
	if err == nil {
		t.Fatal("prefetch of missing idents should fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "missing1") || !strings.Contains(msg, "missing2") {
		t.Fatalf("error lost a failure: %v", err)
	}
	st := r.Stats()
	if st.Misses != 2 {
		t.Fatalf("failed loads not counted: %+v", st)
	}
	if !r.Has("Good") {
		t.Fatal("successful ident not prefetched")
	}
}
