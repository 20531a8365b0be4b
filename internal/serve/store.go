package serve

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"xpdl/internal/diff"
	"xpdl/internal/obs"
)

// Store metrics in the process-wide registry.
var (
	mStoreHits = obs.Default().Counter("xpdl_serve_store_hits_total",
		"Model lookups answered from a resident snapshot.")
	mStoreLoads = obs.Default().Counter("xpdl_serve_model_loads_total",
		"Cold model loads through the toolchain.")
	mStoreSwaps = obs.Default().Counter("xpdl_serve_snapshot_swaps_total",
		"Hot swaps that published a changed snapshot.")
	mStoreUnchanged = obs.Default().Counter("xpdl_serve_snapshot_unchanged_total",
		"Refreshes whose fingerprint matched the resident snapshot.")
	mStoreEvictions = obs.Default().Counter("xpdl_serve_model_evictions_total",
		"Resident models evicted by the LRU cap.")
	mStoreErrors = obs.Default().Counter("xpdl_serve_load_errors_total",
		"Loads or refreshes that ended in error.")
	mStoreResident = obs.Default().Gauge("xpdl_serve_resident_models",
		"Models currently resident in the snapshot store.")
)

// entry is one model slot: the published snapshot behind an atomic
// pointer (readers never block on loads or swaps) plus a per-model
// load mutex so concurrent cold loads and refreshes of the same model
// coalesce into one toolchain run.
type entry struct {
	ident  string
	snap   atomic.Pointer[Snapshot]
	loadMu sync.Mutex
	lruEl  *list.Element // guarded by Store.mu
}

// Store holds resolved model snapshots for the serving daemon. Reads
// are lock-free on the hot path: one map lookup under RLock, one
// atomic pointer load. Publishing a new generation is a single pointer
// swap, so in-flight requests keep the snapshot they started with and
// later requests see the new one — never a mix.
type Store struct {
	loader Loader
	max    int // maximum resident models; <= 0 means unlimited

	gen atomic.Uint64 // generation source, shared across models

	mu      sync.RWMutex
	entries map[string]*entry
	lru     *list.List // front = most recently used; values are *entry

	// hub fans generation-change events out to watch subscribers.
	hub *watchHub
}

// NewStore builds a store over the loader. maxResident bounds how many
// models stay resident at once (<= 0: unlimited); the least recently
// served model is evicted when the cap is exceeded.
func NewStore(loader Loader, maxResident int) *Store {
	return &Store{
		loader:  loader,
		max:     maxResident,
		entries: map[string]*entry{},
		lru:     list.New(),
		hub:     newWatchHub(0),
	}
}

// SetWatchBuffer sizes each watch subscriber's event queue (default
// 16). Call before serving; existing subscribers keep their queue.
func (st *Store) SetWatchBuffer(n int) {
	if n > 0 {
		st.hub.buffer = n
	}
}

// Watch subscribes to generation-change events of ident. History with
// sequence numbers above since is replayed first. The channel closes
// when the subscriber falls too far behind (queue full) or the store
// shuts watchers down; cancel releases the subscription.
func (st *Store) Watch(ident string, since uint64) (<-chan WatchEvent, func()) {
	return st.hub.subscribe(ident, since)
}

// WatchEvents returns ident's buffered events after since plus the
// latest sequence number — the long-poll fast path.
func (st *Store) WatchEvents(ident string, since uint64) ([]WatchEvent, uint64) {
	return st.hub.events(ident, since)
}

// CloseWatchers evicts all watch subscribers and refuses new ones. Run
// it before http.Server.Shutdown: open SSE streams count as active
// requests and would pin the drain forever.
func (st *Store) CloseWatchers() { st.hub.close() }

// InvalidateLoader drops the loader's caches so the next load or
// refresh observes upstream descriptor changes.
func (st *Store) InvalidateLoader() { st.loader.Invalidate() }

// install publishes snap as the entry's new generation: it takes a
// generation number, readies the snapshot (patched against old on the
// delta path, whose pre-serialized answers it reuses), stores the
// pointer, counts the load (old nil) or swap, and emits the watch
// event.
func (st *Store) install(e *entry, snap, old *Snapshot, patched bool, changed []string) {
	snap.Gen = st.gen.Add(1)
	if patched {
		preparePatched(snap, old)
	} else {
		prepare(snap)
	}
	e.snap.Store(snap)
	switch {
	case old == nil:
		mStoreLoads.Inc()
	case patched:
		mStoreSwaps.Inc()
		mDeltaPatched.Inc()
	default:
		mStoreSwaps.Inc()
	}
	st.hub.publish(WatchEvent{
		Model:       snap.Ident,
		Generation:  snap.Gen,
		Fingerprint: snap.Fingerprint,
		Delta:       patched,
		Changed:     changed,
		UnixNano:    snap.LoadedAt.UnixNano(),
	})
}

// changedSummary renders a bounded changed-element summary for watch
// events on the full-resolve path (the delta path knows its changed
// descriptors exactly; here we diff the composed trees and truncate).
func changedSummary(old, cur *Snapshot) []string {
	if old == nil || cur == nil || old.System == nil || cur.System == nil {
		return nil
	}
	const maxEntries = 8
	changes := diff.Diff(old.System, cur.System)
	out := make([]string, 0, maxEntries+1)
	seen := map[string]bool{}
	for _, ch := range changes {
		if seen[ch.Path] {
			continue
		}
		seen[ch.Path] = true
		if len(out) == maxEntries {
			out = append(out, fmt.Sprintf("+%d more", len(changes)-maxEntries))
			break
		}
		out = append(out, ch.Path)
	}
	return out
}

// Get returns the current snapshot of ident, loading it through the
// toolchain on first use (or after eviction). The returned snapshot is
// immutable; callers use it for the duration of one request.
//
// A cold load does not invalidate the loader's descriptor cache:
// invalidating here would cost one conditional request per remote
// descriptor on every load. ToolchainLoader instead drops the cached
// local descriptors whose files changed since they were parsed
// (repo.Repository.Revalidate), so local edits are always seen; remote
// descriptors are as fresh as the last revalidation cycle or
// POST /v1/models/{model}/refresh.
func (st *Store) Get(ctx context.Context, ident string) (*Snapshot, error) {
	st.mu.RLock()
	e := st.entries[ident]
	st.mu.RUnlock()
	if e != nil {
		if snap := e.snap.Load(); snap != nil {
			mStoreHits.Inc()
			st.touch(e)
			return snap, nil
		}
	}
	return st.loadSlow(ctx, ident)
}

// loadSlow performs the cold-load path: create (or revive) the entry,
// take its load mutex, and double-check that a concurrent loader has
// not already published.
func (st *Store) loadSlow(ctx context.Context, ident string) (*Snapshot, error) {
	ctx, sp := obs.StartSpan(ctx, "store.load")
	sp.SetAttr("model", ident)
	defer sp.Stop()
	st.mu.Lock()
	e := st.entries[ident]
	if e == nil {
		e = &entry{ident: ident}
		st.entries[ident] = e
		e.lruEl = st.lru.PushFront(e)
	}
	st.mu.Unlock()

	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	if snap := e.snap.Load(); snap != nil {
		mStoreHits.Inc()
		sp.Event("coalesced: a concurrent load already published gen %d", snap.Gen)
		st.touch(e)
		return snap, nil
	}
	snap, err := st.loader.Load(ctx, ident)
	if err != nil {
		mStoreErrors.Inc()
		st.dropIfEmpty(e)
		return nil, err
	}
	st.install(e, snap, nil, false, nil)
	st.touch(e)
	st.evictOver(e)
	return snap, nil
}

// RefreshResult describes one refresh outcome.
type RefreshResult struct {
	// Swapped reports whether a new snapshot was published.
	Swapped bool
	// Delta reports whether the publish rode the in-place patch path.
	Delta bool
	// Unchanged reports that a resident model was checked and kept.
	Unchanged bool
	// Reason is the delta fallback taxon when a delta-capable loader
	// fell back to a full resolve; empty otherwise.
	Reason string
	// Gen is the generation now resident (0 if the model was not
	// resident at all).
	Gen uint64
	// Changed summarizes what changed (descriptor idents on the delta
	// path, truncated element paths on the full path).
	Changed []string
}

// Refresh resolves ident again and publishes the result only when its
// fingerprint differs from the resident snapshot — the hot-swap path
// the revalidator drives. It reports whether a swap happened. A model
// that is not resident is left alone (nothing to refresh).
func (st *Store) Refresh(ctx context.Context, ident string) (bool, error) {
	res, err := st.RefreshDetail(ctx, ident)
	return res.Swapped, err
}

// RefreshDetail is Refresh with the full outcome. When the loader
// implements DeltaLoader the refresh runs incrementally: an unchanged
// descriptor closure is a true no-op (no resolve, no re-preparation,
// no event), a bounded attribute edit is patched in place reusing the
// old snapshot's indexes and pre-serialized answers, and anything else
// falls back to a full resolve with the reason counted in
// xpdl_delta_fallback_total.
func (st *Store) RefreshDetail(ctx context.Context, ident string) (RefreshResult, error) {
	ctx, sp := obs.StartSpan(ctx, "store.refresh")
	sp.SetAttr("model", ident)
	defer sp.Stop()
	st.mu.RLock()
	e := st.entries[ident]
	st.mu.RUnlock()
	if e == nil {
		return RefreshResult{}, nil
	}
	e.loadMu.Lock()
	defer e.loadMu.Unlock()
	old := e.snap.Load()
	if old == nil {
		return RefreshResult{}, nil // evicted or never published
	}
	// A plain Loader's refresh is a full resolve: the same verdict a
	// DeltaLoader returns when it falls back.
	var res *DeltaResult
	var err error
	if dl, ok := st.loader.(DeltaLoader); ok {
		res, err = dl.LoadDelta(ctx, old)
	} else {
		var snap *Snapshot
		if snap, err = st.loader.Load(ctx, ident); err == nil {
			res = &DeltaResult{Outcome: DeltaFull, Snap: snap}
		}
	}
	if err != nil {
		mStoreErrors.Inc()
		return RefreshResult{}, err
	}
	switch res.Outcome {
	case DeltaUnchanged:
		// True no-op: the resident snapshot, its indexes and its
		// pre-serialized answers all stay; nothing is republished.
		mStoreUnchanged.Inc()
		mDeltaUnchanged.Inc()
		sp.Event("delta: unchanged; keeping gen %d", old.Gen)
		return RefreshResult{Unchanged: true, Gen: old.Gen}, nil
	case DeltaPatched:
		st.install(e, res.Snap, old, true, res.Changed)
		sp.Event("delta: patched to gen %d (%d descriptors)", res.Snap.Gen, len(res.Changed))
		return RefreshResult{Swapped: true, Delta: true, Gen: res.Snap.Gen, Changed: res.Changed}, nil
	default: // DeltaFull
		if res.Reason != "" {
			deltaFallbacks(res.Reason).Inc()
		}
		snap := res.Snap
		if snap.Fingerprint == old.Fingerprint {
			mStoreUnchanged.Inc()
			sp.Event("fingerprint unchanged; keeping gen %d", old.Gen)
			return RefreshResult{Unchanged: true, Reason: res.Reason, Gen: old.Gen}, nil
		}
		changed := changedSummary(old, snap)
		st.install(e, snap, old, false, changed)
		return RefreshResult{Swapped: true, Reason: res.Reason, Gen: snap.Gen, Changed: changed}, nil
	}
}

// touch moves the entry to the LRU front and refreshes the resident
// gauge.
func (st *Store) touch(e *entry) {
	st.mu.Lock()
	if e.lruEl != nil {
		st.lru.MoveToFront(e.lruEl)
	}
	mStoreResident.Set(float64(len(st.entries)))
	st.mu.Unlock()
}

// dropIfEmpty removes an entry whose load failed before anything was
// published, so a bad identifier does not pin an LRU slot.
func (st *Store) dropIfEmpty(e *entry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e.snap.Load() == nil {
		if e.lruEl != nil {
			st.lru.Remove(e.lruEl)
			e.lruEl = nil
		}
		delete(st.entries, e.ident)
	}
}

// evictOver enforces the residency cap, never evicting keep (the entry
// just served).
func (st *Store) evictOver(keep *entry) {
	if st.max <= 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.entries) > st.max {
		back := st.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		if victim == keep {
			// The only over-cap candidate is the entry being served;
			// serving it beats honoring the cap by one.
			break
		}
		st.lru.Remove(back)
		victim.lruEl = nil
		victim.snap.Store(nil)
		delete(st.entries, victim.ident)
		mStoreEvictions.Inc()
	}
	mStoreResident.Set(float64(len(st.entries)))
}

// Evict removes ident from the store; the next Get re-loads it.
func (st *Store) Evict(ident string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[ident]
	if !ok {
		return false
	}
	if e.lruEl != nil {
		st.lru.Remove(e.lruEl)
		e.lruEl = nil
	}
	e.snap.Store(nil)
	delete(st.entries, ident)
	mStoreResident.Set(float64(len(st.entries)))
	return true
}

// Resident returns the identifiers of resident models, sorted.
func (st *Store) Resident() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, 0, len(st.entries))
	for id, e := range st.entries {
		if e.snap.Load() != nil {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Peek returns the resident snapshot without loading or touching the
// LRU (introspection endpoints, tests).
func (st *Store) Peek(ident string) (*Snapshot, bool) {
	st.mu.RLock()
	e := st.entries[ident]
	st.mu.RUnlock()
	if e == nil {
		return nil, false
	}
	snap := e.snap.Load()
	return snap, snap != nil
}

// Generation returns the latest generation the store has published.
func (st *Store) Generation() uint64 { return st.gen.Load() }

// Loader exposes the store's loader so subsystems that need more than
// snapshots (the sweep engine wants the descriptor repository) can
// type-assert for the extra capability.
func (st *Store) Loader() Loader { return st.loader }

// String summarizes the store for logs.
func (st *Store) String() string {
	return fmt.Sprintf("serve.Store{resident: %d, gen: %d}", len(st.Resident()), st.Generation())
}
