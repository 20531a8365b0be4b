package repo

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"xpdl/internal/model"
	"xpdl/internal/obs"
)

// FetchConfig tunes the remote-fetch path of a Repository. The zero
// value of every field selects a sensible default, so callers only set
// the knobs they care about (see DefaultFetchConfig).
type FetchConfig struct {
	// MaxAttempts bounds the number of tries per remote for retryable
	// failures (network errors, truncated bodies, HTTP 429/5xx).
	// Non-retryable failures — any other 4xx, or a descriptor that
	// fails to parse — abort the remote immediately.
	MaxAttempts int
	// BaseBackoff is the backoff before the first retry; each further
	// retry doubles it (with jitter) up to MaxBackoff. A Retry-After
	// header on a 429/503 response overrides the computed backoff,
	// still capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff time.Duration
	// PerAttemptTimeout bounds each individual HTTP attempt, so one
	// hung remote cannot absorb the whole retry budget.
	PerAttemptTimeout time.Duration
	// HedgeDelay staggers multi-remote failover: the next remote is
	// raced as soon as the previous one fails permanently *or* this
	// delay elapses, whichever comes first. The first success wins and
	// cancels the losers.
	HedgeDelay time.Duration
	// CacheDir, when non-empty, enables the on-disk descriptor cache:
	// fetched bodies are stored together with their ETag/Last-Modified
	// validators and revalidated with conditional requests; a 304
	// answer serves the cached copy without re-downloading.
	CacheDir string

	// Test hooks (package-internal): wait sleeps between retries and
	// jitter drives backoff randomization.
	wait   func(context.Context, time.Duration) error
	jitter func() float64
}

// DefaultFetchConfig returns the retry/backoff configuration used by
// New.
func DefaultFetchConfig() FetchConfig {
	return FetchConfig{
		MaxAttempts:       3,
		BaseBackoff:       100 * time.Millisecond,
		MaxBackoff:        2 * time.Second,
		PerAttemptTimeout: 5 * time.Second,
		HedgeDelay:        250 * time.Millisecond,
	}
}

// withDefaults fills zero fields from DefaultFetchConfig.
func (cfg FetchConfig) withDefaults() FetchConfig {
	def := DefaultFetchConfig()
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = def.MaxAttempts
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = def.BaseBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = def.MaxBackoff
	}
	if cfg.PerAttemptTimeout <= 0 {
		cfg.PerAttemptTimeout = def.PerAttemptTimeout
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = def.HedgeDelay
	}
	if cfg.wait == nil {
		cfg.wait = ctxSleep
	}
	if cfg.jitter == nil {
		cfg.jitter = rand.Float64
	}
	return cfg
}

func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// permanentError marks a fetch failure that retrying cannot cure (a
// 4xx other than 429, or a descriptor that does not parse).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanent(err error) error { return &permanentError{err} }

func isPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// statusError reports a non-200 HTTP response.
type statusError struct {
	url        string
	code       int
	retryAfter time.Duration // parsed Retry-After, 0 if absent
}

func (e *statusError) Error() string {
	return fmt.Sprintf("repo: GET %s: %s", e.url, http.StatusText(e.code))
}

// retryable classifies a failed attempt: network errors and truncated
// reads are retryable, as are 429 and all 5xx responses; everything
// wrapped in permanentError is not.
func retryable(err error) bool {
	if isPermanent(err) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.code == http.StatusTooManyRequests || se.code >= 500
	}
	return true // transport-level failure
}

// backoffFor computes the sleep before retry number `retry` (0-based),
// honoring a server-provided Retry-After when present.
func (cfg FetchConfig) backoffFor(retry int, err error) time.Duration {
	var se *statusError
	if errors.As(err, &se) && se.retryAfter > 0 {
		if se.retryAfter > cfg.MaxBackoff {
			return cfg.MaxBackoff
		}
		return se.retryAfter
	}
	d := cfg.BaseBackoff << uint(retry)
	if d > cfg.MaxBackoff || d <= 0 {
		d = cfg.MaxBackoff
	}
	// Half fixed, half jittered: avoids synchronized retry stampedes
	// while keeping a floor so tests and operators can reason about it.
	return d/2 + time.Duration(cfg.jitter()*float64(d/2))
}

// fetchResult is what one remote's retry loop produced.
type fetchResult struct {
	c      *model.Component
	origin string
	err    error
}

// fetchAny fetches ident from the configured remotes with hedged
// failover: remote i+1 is started when remote i fails permanently or
// after HedgeDelay, whichever comes first. The first success cancels
// all other in-flight attempts. All remote errors are joined into the
// returned error when nothing succeeds.
func (r *Repository) fetchAny(ctx context.Context, ident string, remotes []string) (*model.Component, string, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	cfg := r.fetchCfg
	results := make(chan fetchResult, len(remotes))
	launched := 0
	launch := func() {
		base := remotes[launched]
		launched++
		go func() {
			c, err := r.fetchWithRetry(ctx, base, ident)
			results <- fetchResult{c, base + "/" + ident + ".xpdl", err}
		}()
	}
	launch()

	var errs []error
	pending := 1
	hedge := time.NewTimer(cfg.HedgeDelay)
	defer hedge.Stop()
	for {
		select {
		case res := <-results:
			if res.err == nil {
				return res.c, res.origin, nil
			}
			errs = append(errs, res.err)
			pending--
			if launched < len(remotes) {
				launch() // fall through to the next remote immediately
				pending++
				hedge.Reset(cfg.HedgeDelay)
			} else if pending == 0 {
				return nil, "", errors.Join(errs...)
			}
		case <-hedge.C:
			if launched < len(remotes) {
				launch() // hedge: race the next remote
				pending++
				hedge.Reset(cfg.HedgeDelay)
			}
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
}

// fetchWithRetry runs the per-remote retry loop with exponential
// backoff and jitter around fetchOnce. Under a traced request each
// remote gets a child span whose events record every retry attempt
// and its outcome, so a slow cold load explains itself.
func (r *Repository) fetchWithRetry(ctx context.Context, base, ident string) (*model.Component, error) {
	cfg := r.fetchCfg
	ctx, sp := obs.StartSpan(ctx, "repo.fetch")
	sp.SetAttr("remote", base)
	sp.SetAttr("ident", ident)
	defer sp.Stop()
	var last error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.bump(func(s *Stats) { s.Retries++ })
			backoff := cfg.backoffFor(attempt-1, last)
			sp.Event("retry %d/%d after %s (cause: %v)", attempt+1, cfg.MaxAttempts, backoff.Round(time.Millisecond), last)
			if err := cfg.wait(ctx, backoff); err != nil {
				return nil, err
			}
		}
		c, err := r.fetchOnce(ctx, base, ident)
		if err == nil {
			return c, nil
		}
		last = err
		r.bump(func(s *Stats) { s.Failures++ })
		sp.Event("attempt %d failed: %v", attempt+1, err)
		if !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	return nil, last
}

// fetchOnce performs one conditional HTTP attempt against one remote,
// consulting and refreshing the on-disk descriptor cache when enabled.
func (r *Repository) fetchOnce(ctx context.Context, base, ident string) (*model.Component, error) {
	url := base + "/" + ident + ".xpdl"
	attemptCtx := ctx
	if cfg := r.fetchCfg; cfg.PerAttemptTimeout > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeout(ctx, cfg.PerAttemptTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodGet, url, nil)
	if err != nil {
		return nil, permanent(err)
	}
	// Carry the active trace across the process boundary so the remote
	// library's access logs line up with the daemon's trace ID.
	obs.Propagate(ctx, req.Header.Set)
	var cached *cacheEntry
	if r.disk != nil {
		if e, ok := r.disk.lookup(ident); ok {
			cached = e
			if e.etag != "" {
				req.Header.Set("If-None-Match", e.etag)
			}
			if e.lastModified != "" {
				req.Header.Set("If-Modified-Since", e.lastModified)
			}
		}
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusNotModified && cached != nil:
		c, _, err := r.parser.ParseFile(cached.path, cached.body)
		if err != nil {
			// The cached copy rotted; drop it so the next attempt
			// downloads a fresh body.
			r.disk.remove(ident)
			return nil, err
		}
		r.bump(func(s *Stats) { s.NotModified++ })
		obs.SpanFromContext(ctx).Event("304 not modified; served from disk cache")
		return c, nil
	case resp.StatusCode != http.StatusOK:
		return nil, &statusError{url: url, code: resp.StatusCode, retryAfter: RetryAfter(resp)}
	}
	src, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	c, _, err := r.parser.ParseFile(url, src)
	if err != nil {
		return nil, permanent(err)
	}
	if r.disk != nil {
		// Cache failures are advisory: the descriptor was fetched fine.
		r.disk.store(ident, src, resp.Header.Get("ETag"), resp.Header.Get("Last-Modified"))
	}
	r.bump(func(s *Stats) { s.RemoteFetches++ })
	obs.SpanFromContext(ctx).Event("fetched %d bytes (200)", len(src))
	return c, nil
}

// RetryAfter parses a response's Retry-After header in both RFC 9110
// forms: delta-seconds and HTTP-date (a date in the past means no
// delay). Absent or unparseable values give zero, which callers treat
// as "no hint". It is the one parser every HTTP client in this module
// uses: the repository fetcher, the query client and the routing tier.
func RetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// FetchURL downloads an arbitrary URL with the same retry/backoff and
// per-attempt-timeout policy the repository applies to descriptor
// fetches. Tools use it for robust one-shot downloads (e.g. xpdlquery
// loading a runtime model over HTTP).
func FetchURL(ctx context.Context, url string, cfg FetchConfig) ([]byte, error) {
	cfg = cfg.withDefaults()
	client := &http.Client{}
	var last error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := cfg.wait(ctx, cfg.backoffFor(attempt-1, last)); err != nil {
				return nil, err
			}
		}
		body, err := fetchURLOnce(ctx, client, url, cfg.PerAttemptTimeout)
		if err == nil {
			return body, nil
		}
		last = err
		if !retryable(err) || ctx.Err() != nil {
			break
		}
	}
	return nil, last
}

func fetchURLOnce(ctx context.Context, client *http.Client, url string, timeout time.Duration) ([]byte, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, permanent(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{url: url, code: resp.StatusCode, retryAfter: RetryAfter(resp)}
	}
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}
