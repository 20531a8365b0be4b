// Package repo implements the distributed XPDL model repository of
// Section III: descriptor modules (.xpdl files) are indexed by their
// unique meta-model name or instance id and retrieved either from a
// local model search path or from remote model libraries addressed by
// URL (the paper envisions hardware manufacturers hosting descriptor
// downloads; cmd/xpdlrepo provides such a server).
//
// The remote-fetch path is production-grade: per-remote retries with
// exponential backoff and jitter (honoring 429/5xx vs. other-4xx
// semantics and Retry-After), per-attempt timeouts, hedged failover
// across remotes, singleflight coalescing of concurrent loads of the
// same identifier, and optional ETag/If-None-Match revalidation backed
// by an on-disk descriptor cache. See FetchConfig.
//
// The repository is safe for concurrent use: the XPDL processing tool
// resolves submodel references in parallel while composing a system
// model, and the runtime query API may lazily load referenced
// descriptors from multiple goroutines.
package repo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"xpdl/internal/model"
	"xpdl/internal/obs"
	"xpdl/internal/parser"
)

// Stats counts repository activity; useful for cache-effectiveness and
// robustness experiments (EXPERIMENTS.md E9).
type Stats struct {
	Loads         int // successful Load calls
	CacheHits     int // Loads served from the in-memory cache
	LocalParses   int // descriptor files parsed from disk
	RemoteFetches int // full descriptor bodies fetched over HTTP (200)
	Misses        int // Load calls that found the identifier nowhere
	Retries       int // retry attempts after retryable fetch failures
	Failures      int // individual fetch attempts that ended in error
	NotModified   int // 304 revalidations served from the disk cache
	Coalesced     int // Loads that shared another caller's in-flight fetch
	Invalidations int // Invalidate calls (cache drops for revalidation)
}

// Repository locates, parses and caches XPDL descriptor modules.
type Repository struct {
	parser   *parser.Parser
	client   *http.Client
	fetchCfg FetchConfig
	disk     *diskCache
	flight   flightGroup
	remotes  []string

	mu     sync.RWMutex
	files  map[string]string           // ident -> file path (from Scan)
	cache  map[string]*model.Component // ident -> parsed root
	stamps map[string]fileStamp        // ident -> its cached local file as parsed
	stats  Stats
}

// fileStamp is the size and modification time of a local descriptor
// file when it was parsed; Revalidate compares it with the file now.
type fileStamp struct {
	size  int64
	mtime int64 // UnixNano
}

func stampOf(info os.FileInfo) fileStamp {
	return fileStamp{size: info.Size(), mtime: info.ModTime().UnixNano()}
}

// readStamped reads a file and its stamp through one open file. The
// stat comes before the read and also sizes the buffer, as in
// os.ReadFile.
func readStamped(path string) ([]byte, fileStamp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fileStamp{}, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fileStamp{}, err
	}
	var b bytes.Buffer
	b.Grow(int(info.Size()) + bytes.MinRead)
	if _, err := b.ReadFrom(f); err != nil {
		return nil, fileStamp{}, err
	}
	return b.Bytes(), stampOf(info), nil
}

// New creates a repository over the given local search paths. Call
// Scan to index them.
func New(searchPaths ...string) (*Repository, error) {
	r := &Repository{
		parser:   parser.New(),
		client:   &http.Client{},
		fetchCfg: DefaultFetchConfig().withDefaults(),
		files:    map[string]string{},
		cache:    map[string]*model.Component{},
		stamps:   map[string]fileStamp{},
	}
	if err := r.AddPaths(searchPaths...); err != nil {
		return nil, err
	}
	return r, nil
}

// SetFetchConfig replaces the remote-fetch policy. Zero-valued fields
// fall back to DefaultFetchConfig. Setting CacheDir enables the
// on-disk descriptor cache (the directory is created if needed). Must
// be called before the first Load that hits a remote.
func (r *Repository) SetFetchConfig(cfg FetchConfig) error {
	r.fetchCfg = cfg.withDefaults()
	r.disk = nil
	if cfg.CacheDir != "" {
		d, err := newDiskCache(cfg.CacheDir)
		if err != nil {
			return err
		}
		r.disk = d
	}
	return nil
}

// bump applies a counter update under the stats lock.
func (r *Repository) bump(f func(*Stats)) {
	r.mu.Lock()
	f(&r.stats)
	r.mu.Unlock()
}

// AddPaths indexes additional local search paths.
func (r *Repository) AddPaths(paths ...string) error {
	for _, p := range paths {
		if err := r.scanDir(p); err != nil {
			return err
		}
	}
	return nil
}

// AddRemote registers a remote model library base URL. Identifiers not
// found locally are fetched as <base>/<ident>.xpdl.
func (r *Repository) AddRemote(baseURL string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.remotes = append(r.remotes, strings.TrimRight(baseURL, "/"))
}

// scanDir walks one directory tree and indexes every .xpdl file by the
// name/id of its root element. Files are parsed eagerly so that index
// collisions (the paper requires repository-wide unique names) surface
// immediately.
func (r *Repository) scanDir(dir string) error {
	return filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".xpdl") {
			return nil
		}
		c, st, err := r.parseFile(path)
		if err != nil {
			return err
		}
		return r.register(c, path, &st)
	})
}

// parseFile parses one local descriptor and returns the file's stamp,
// taken before the read: an edit racing the read leaves a stamp older
// than the content, which Revalidate later takes for a change.
func (r *Repository) parseFile(path string) (*model.Component, fileStamp, error) {
	src, st, err := readStamped(path)
	if err != nil {
		return nil, st, err
	}
	c, _, err := r.parser.ParseFile(path, src)
	if err != nil {
		return nil, st, err
	}
	r.bump(func(s *Stats) { s.LocalParses++ })
	return c, st, nil
}

// register caches c under its identifier. st is the stamp of the local
// file c was parsed from, nil for remote and in-memory descriptors.
func (r *Repository) register(c *model.Component, origin string, st *fileStamp) error {
	ident := c.Ident()
	if ident == "" {
		return fmt.Errorf("repo: %s: root <%s> has neither name= nor id=", origin, c.Kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, dup := r.files[ident]; dup && prev != origin {
		return fmt.Errorf("repo: identifier %q defined in both %s and %s", ident, prev, origin)
	}
	r.files[ident] = origin
	r.cache[ident] = c
	if st != nil {
		r.stamps[ident] = *st
	}
	return nil
}

// Register adds an in-memory component to the repository (used by tests
// and by tools that synthesize models).
func (r *Repository) Register(c *model.Component) error {
	return r.register(c, memoryOrigin, nil)
}

// memoryOrigin marks descriptors registered without a backing file or
// URL; Invalidate keeps them because they cannot be re-loaded.
const memoryOrigin = "<memory>"

// isRemoteOrigin reports whether an origin recorded in the file index
// is a remote library URL rather than a local path.
func isRemoteOrigin(origin string) bool {
	return strings.HasPrefix(origin, "http://") || strings.HasPrefix(origin, "https://")
}

// Invalidate drops the in-memory descriptor cache so subsequent Loads
// observe upstream changes — the revalidation hook behind long-running
// services (xpdld) that hot-swap resolved model snapshots. The file
// index is retained: local descriptors are lazily re-parsed from their
// recorded path on the next Load, and remote descriptors are re-fetched
// through the conditional-request path, where an unchanged body costs
// one 304 against the on-disk cache instead of a download. Descriptors
// registered via Register (no backing file) are kept as-is.
func (r *Repository) Invalidate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for ident, origin := range r.files {
		if origin == memoryOrigin {
			continue
		}
		delete(r.cache, ident)
		delete(r.stamps, ident)
		if isRemoteOrigin(origin) {
			// Forget the remote registration entirely: the next Load
			// runs the full hedged fetch (ETag revalidation included)
			// and re-registers whatever origin wins.
			delete(r.files, ident)
		}
	}
	r.stats.Invalidations++
}

// Revalidate drops every cached local descriptor whose file changed or
// is gone since it was parsed, so the next Load re-parses it, and
// returns how many it dropped. It stats only the local descriptors
// still in the cache, so right after Invalidate it costs nothing.
// Remote and in-memory descriptors are left alone.
//
// A change is seen through the file's size and modification time. An
// edit that keeps the size and leaves the mtime unchanged goes unseen
// until the next Invalidate: one landing within the file system's
// timestamp granularity of the parse (coarse on some file systems), or
// one whose tool restores the old mtime.
func (r *Repository) Revalidate() int {
	type check struct {
		ident, path string
		st          fileStamp
	}
	r.mu.RLock()
	checks := make([]check, 0, len(r.stamps))
	for ident, st := range r.stamps {
		checks = append(checks, check{ident, r.files[ident], st})
	}
	r.mu.RUnlock()
	var stale []check
	for _, c := range checks {
		if info, err := os.Stat(c.path); err != nil || stampOf(info) != c.st {
			stale = append(stale, c)
		}
	}
	if len(stale) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range stale {
		// A Load may have re-parsed the file since the stat; keep that.
		if st, ok := r.stamps[c.ident]; ok && st == c.st {
			delete(r.cache, c.ident)
			delete(r.stamps, c.ident)
			n++
		}
	}
	return n
}

// Has reports whether the identifier is known (without fetching).
func (r *Repository) Has(ident string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.cache[ident]
	return ok
}

// Load returns the descriptor registered under ident, fetching it from
// a remote library if necessary. The returned component is shared and
// must be treated as read-only; clone before mutating.
func (r *Repository) Load(ident string) (*model.Component, error) {
	return r.LoadContext(context.Background(), ident)
}

// LoadContext is Load with cancellation: an expired or canceled
// context aborts in-flight remote fetches (including their backoff
// sleeps) and returns the context error.
//
// Concurrent loads of one identifier are coalesced: exactly one fetch
// is issued and every waiter shares its outcome.
func (r *Repository) LoadContext(ctx context.Context, ident string) (*model.Component, error) {
	r.mu.Lock()
	if c, ok := r.cache[ident]; ok {
		r.stats.Loads++
		r.stats.CacheHits++
		r.mu.Unlock()
		return c, nil
	}
	remotes := append([]string(nil), r.remotes...)
	r.mu.Unlock()

	// A cache miss is real work (disk re-parse or remote fetch): record
	// it as a child span of whatever trace the caller is running under.
	spanCtx, sp := obs.StartSpan(ctx, "repo.load")
	sp.SetAttr("ident", ident)
	defer sp.Stop()

	v, err, shared := r.flight.do(ident, func() (any, error) {
		return r.fetchAndRegister(spanCtx, ident, remotes)
	})
	if err != nil {
		r.bump(func(s *Stats) { s.Misses++ })
		return nil, err
	}
	if shared {
		sp.Event("coalesced with another caller's in-flight fetch")
	}
	r.bump(func(s *Stats) {
		s.Loads++
		if shared {
			s.Coalesced++
		}
	})
	return v.(*model.Component), nil
}

// fetchAndRegister is the singleflight leader body: fetch ident from
// the remotes (hedged, with retries) and register the result.
func (r *Repository) fetchAndRegister(ctx context.Context, ident string, remotes []string) (*model.Component, error) {
	// Double-check the cache: a previous flight may have registered the
	// descriptor between this caller's cache miss and it becoming the
	// leader. Without this, back-to-back flights would fetch twice.
	r.mu.RLock()
	c, ok := r.cache[ident]
	r.mu.RUnlock()
	if ok {
		r.bump(func(s *Stats) { s.CacheHits++ })
		return c, nil
	}
	// An invalidated local descriptor keeps its file-index entry: re-parse
	// it from disk so Invalidate + Load observes on-disk edits without a
	// full directory re-scan.
	r.mu.RLock()
	origin, indexed := r.files[ident]
	r.mu.RUnlock()
	if indexed && !isRemoteOrigin(origin) && origin != memoryOrigin {
		obs.SpanFromContext(ctx).Event("re-parsing local descriptor %s", origin)
		c, st, err := r.parseFile(origin)
		if err != nil {
			return nil, err
		}
		if c.Ident() != ident {
			// The file was rewritten under a different root identifier;
			// the old name no longer resolves locally.
			r.mu.Lock()
			delete(r.files, ident)
			r.mu.Unlock()
			return nil, notFoundErr(ident, len(remotes), nil)
		}
		if err := r.register(c, origin, &st); err != nil {
			return nil, err
		}
		return c, nil
	}
	if len(remotes) == 0 {
		return nil, notFoundErr(ident, 0, nil)
	}
	c, origin, err := r.fetchAny(ctx, ident, remotes)
	if err != nil {
		return nil, notFoundErr(ident, len(remotes), err)
	}
	if err := r.register(c, origin, nil); err != nil {
		return nil, err
	}
	return c, nil
}

// notFoundErr builds the canonical "not found" error, wrapping the
// joined per-remote fetch errors when there are any.
func notFoundErr(ident string, nremotes int, cause error) error {
	msg := fmt.Sprintf("repo: model %q not found in search path or %d remote librar%s",
		ident, nremotes, plural(nremotes, "y", "ies"))
	if cause == nil {
		return errors.New(msg)
	}
	return fmt.Errorf("%s: %w", msg, cause)
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// LoadFile parses and registers a single descriptor file outside the
// indexed search paths (e.g. a top-level system model given on the
// command line).
func (r *Repository) LoadFile(path string) (*model.Component, error) {
	c, st, err := r.parseFile(path)
	if err != nil {
		return nil, err
	}
	if err := r.register(c, path, &st); err != nil {
		return nil, err
	}
	return c, nil
}

// Idents returns all registered identifiers in sorted order.
func (r *Repository) Idents() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.cache))
	for k := range r.cache {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the repository counters.
func (r *Repository) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// PublishMetrics bridges the repository's Stats counters into an obs
// registry as scrape-time func metrics (nil selects obs.Default), so
// /metrics exposes live fetch/cache/robustness counts. Re-publishing
// from a newer Repository takes over the metric names.
func (r *Repository) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	bridge := func(name, help string, sel func(Stats) int) {
		reg.CounterFunc(name, help, func() float64 { return float64(sel(r.Stats())) })
	}
	bridge("xpdl_repo_loads_total", "Successful descriptor Load calls.",
		func(s Stats) int { return s.Loads })
	bridge("xpdl_repo_cache_hits_total", "Loads served from the in-memory cache.",
		func(s Stats) int { return s.CacheHits })
	bridge("xpdl_repo_local_parses_total", "Descriptor files parsed from disk.",
		func(s Stats) int { return s.LocalParses })
	bridge("xpdl_repo_remote_fetches_total", "Full descriptor bodies fetched over HTTP (200).",
		func(s Stats) int { return s.RemoteFetches })
	bridge("xpdl_repo_misses_total", "Load calls that found the identifier nowhere.",
		func(s Stats) int { return s.Misses })
	bridge("xpdl_repo_retries_total", "Retry attempts after retryable fetch failures.",
		func(s Stats) int { return s.Retries })
	bridge("xpdl_repo_failures_total", "Individual fetch attempts that ended in error.",
		func(s Stats) int { return s.Failures })
	bridge("xpdl_repo_not_modified_total", "304 revalidations served from the disk cache.",
		func(s Stats) int { return s.NotModified })
	bridge("xpdl_repo_coalesced_total", "Loads that shared another caller's in-flight fetch.",
		func(s Stats) int { return s.Coalesced })
	bridge("xpdl_repo_invalidations_total", "Invalidate calls (cache drops for revalidation).",
		func(s Stats) int { return s.Invalidations })
}

// Prefetch loads the given identifiers concurrently with at most
// `workers` parallel fetches. All load failures are aggregated into
// the returned error (errors.Join); each failure is also counted in
// Stats.Misses. It is used by the processing tool to warm the cache
// for all submodels referenced by a system model before composition.
func (r *Repository) Prefetch(idents []string, workers int) error {
	return r.PrefetchContext(context.Background(), idents, workers)
}

// PrefetchContext is Prefetch with cancellation and tracing: each
// worker loads through LoadContext, so cache misses appear as
// repo.load child spans of the context's active span (the toolchain's
// fetch phase under a traced request) and an expired context aborts
// the remaining fetches.
func (r *Repository) PrefetchContext(ctx context.Context, idents []string, workers int) error {
	if workers < 1 {
		workers = 1
	}
	type job struct {
		idx   int
		ident string
	}
	jobs := make(chan job)
	errs := make([]error, len(idents))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if _, err := r.LoadContext(ctx, j.ident); err != nil {
					errs[j.idx] = err
				}
			}
		}()
	}
	for i, id := range idents {
		jobs <- job{i, id}
	}
	close(jobs)
	wg.Wait()
	return errors.Join(errs...)
}

// ReferencedTypes returns the set of type= and extends= identifiers
// referenced anywhere in the component subtree, sorted. The processing
// tool uses this to discover which submodels a system model needs.
func ReferencedTypes(c *model.Component) []string {
	seen := map[string]bool{}
	c.Walk(func(x *model.Component) bool {
		if x.Type != "" {
			seen[x.Type] = true
		}
		for _, e := range x.Extends {
			seen[e] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
