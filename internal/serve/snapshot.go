// Package serve implements xpdld, the hot-swapping platform-model
// query service: it loads one or more platform models through the
// existing processing toolchain into immutable query snapshots and
// answers JSON-over-HTTP requests — element lookup, selector
// evaluation, expression/env evaluation, energy-table and
// transfer-cost queries, and composition variant dispatch — against
// the in-memory query.Session instead of the filesystem.
//
// The paper's Section IV positions the runtime query API as what
// "upper optimization layers" call at run time; this package is the
// long-running home of that API. Resolved snapshots are held behind an
// atomic pointer per model with an LRU bounding residency, and a
// background revalidator polls the repository (ETag/304 for remote
// descriptors, lazy re-parse for local ones) and hot-swaps freshly
// resolved snapshots without dropping in-flight requests.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"xpdl/internal/core"
	"xpdl/internal/delta"
	"xpdl/internal/model"
	"xpdl/internal/obs"
	"xpdl/internal/query"
	"xpdl/internal/repo"
	"xpdl/internal/rtmodel"
)

// Snapshot is one immutable, fully resolved platform model generation.
// Everything reachable from it is read-only after construction, so any
// number of request goroutines may share it while the store swaps in a
// successor; holders of an old snapshot keep a consistent view until
// they drop it.
type Snapshot struct {
	// Ident is the concrete system model identifier (e.g. "XScluster").
	Ident string
	// Gen is the store-assigned generation, strictly increasing across
	// publishes of the same model. Zero until published.
	Gen uint64
	// Fingerprint is a content hash of the serialized runtime model;
	// two snapshots with equal fingerprints answer every query alike.
	Fingerprint string
	// LoadedAt is when resolution finished.
	LoadedAt time.Time
	// Session is the runtime query API over the resolved model.
	Session *query.Session
	// System is the composed instance tree behind Session; energy-table
	// and transfer-cost queries read it.
	System *model.Component

	// pre holds the snapshot's pre-serialized responses (see
	// preser.go). Invariant: published ⇒ prepared. Every store publish
	// runs prepare or preparePatched before the pointer swap, so pre is
	// never nil on a snapshot a handler can reach.
	pre *preResponses

	// descs is the descriptor closure captured when the snapshot was
	// resolved; the incremental refresh path diffs a fresh capture
	// against it to decide between patching and a full resolve. Nil when
	// capture failed or the snapshot predates delta support — refreshes
	// then fall back to the full pipeline.
	descs *delta.Set
}

// Nodes returns the runtime-model node count.
func (s *Snapshot) Nodes() int { return s.Session.Model().Len() }

// fingerprintOf hashes the runtime model's canonical content stream.
// WriteCanonical skips the string-interning pass of the file format, so
// fingerprinting costs one model walk — it runs on every load AND on
// every delta patch, where it would otherwise dominate the patch path.
func fingerprintOf(m *rtmodel.Model) (string, error) {
	h := sha256.New()
	if err := m.WriteCanonical(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// Loader resolves a system identifier into a fresh snapshot.
type Loader interface {
	// Load resolves systemID end to end. Implementations must return a
	// snapshot that shares no mutable state with previous loads.
	Load(ctx context.Context, systemID string) (*Snapshot, error)
	// Invalidate asks the loader to drop caches so the next Load
	// observes upstream changes (new descriptor bodies, edited files).
	Invalidate()
}

// ToolchainLoader loads snapshots through the XPDL processing tool
// (parse → fetch → resolve → analyze → emit) over a shared repository,
// so consecutive loads reuse the descriptor cache and — after
// Invalidate — the conditional-request (ETag/304) revalidation path.
type ToolchainLoader struct {
	// Span, when non-nil, receives one child span per load.
	Span *obs.Span

	mu   sync.Mutex
	tc   *core.Toolchain
	opts core.Options
}

// NewToolchainLoader builds the underlying toolchain once; Load calls
// share its repository.
func NewToolchainLoader(opts core.Options) (*ToolchainLoader, error) {
	tc, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	return &ToolchainLoader{tc: tc, opts: opts}, nil
}

// Load resolves systemID into an immutable snapshot. Loads are
// serialized: the toolchain's resolver is itself parallel, and model
// resolution is a cold path compared to query serving.
func (l *ToolchainLoader) Load(ctx context.Context, systemID string) (*Snapshot, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loadLocked(ctx, systemID)
}

// loadLocked is the full-pipeline load; the caller holds l.mu.
func (l *ToolchainLoader) loadLocked(ctx context.Context, systemID string) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Attach under the request trace when one is active; the standalone
	// Span field stays the fallback for untraced daemon bootstrap loads.
	ctx, sp := obs.StartSpan(ctx, "load")
	if sp == nil {
		sp = l.Span.Start("load")
	}
	sp.SetAttr("system", systemID)
	defer sp.Stop()
	// A cold load resolves from the descriptor cache; drop the entries
	// whose files were edited since they were parsed, so a first load
	// or a reload after eviction never resolves a pre-edit file.
	if n := l.tc.Repo.Revalidate(); n > 0 {
		sp.Event("dropped %d cached descriptors changed on disk", n)
	}
	res, err := l.tc.ProcessContext(ctx, systemID)
	if err != nil {
		return nil, fmt.Errorf("serve: load %s: %w", systemID, err)
	}
	fp, err := fingerprintOf(res.Runtime)
	if err != nil {
		return nil, fmt.Errorf("serve: fingerprint %s: %w", systemID, err)
	}
	snap := &Snapshot{
		Ident:       systemID,
		Fingerprint: fp,
		LoadedAt:    time.Now(),
		Session:     query.NewSession(res.Runtime),
		System:      res.System,
	}
	// Capture the descriptor closure for incremental refreshes. The
	// repository cache is warm from the load just done, so this re-walks
	// parsed descriptors without I/O. A capture failure only costs the
	// delta path: the next refresh falls back to a full resolve.
	if set, err := delta.Capture(systemID, func(id string) (*model.Component, error) {
		return l.tc.Repo.LoadContext(ctx, id)
	}); err == nil {
		snap.descs = set
	} else {
		sp.Event("descriptor capture failed: %v", err)
	}
	return snap, nil
}

// Invalidate drops the repository's in-memory descriptor cache; the
// next Load re-parses local files and revalidates remote descriptors
// with conditional requests (304 when unchanged).
func (l *ToolchainLoader) Invalidate() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tc.Repo.Invalidate()
}

// Repo exposes the underlying repository (metrics bridging, tests).
func (l *ToolchainLoader) Repo() *repo.Repository {
	return l.tc.Repo
}
