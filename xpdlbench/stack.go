package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"xpdl/internal/core"
	"xpdl/internal/obs"
	"xpdl/internal/query"
	"xpdl/internal/repo"
	"xpdl/internal/serve"
)

// Models every workload keeps resident.
const (
	smallModel = "liu_gpu_server" // ~5k runtime nodes
	bigModel   = "XScluster"      // ~44k runtime nodes
)

// stack is one in-process xpdld: a toolchain loader over a private
// corpus copy, the snapshot store, the query server and an HTTP server
// on a 127.0.0.1:0 listener. close releases all of it.
type stack struct {
	corpus string
	loader *serve.ToolchainLoader
	wrap   *spanLoader
	store  *serve.Store
	srv    *serve.Server
	hs     *http.Server
	ln     net.Listener
	base   string
	served chan error // Serve's return value

	closeOnce sync.Once
}

// startStack copies the corpus below tmpRoot and starts a server over
// it with xpdld's default configuration (trace sample 0.1, qstats on,
// plan cache 1024, refresh allowed, 500 ms slow-request log line,
// watch buffer 16). It preloads both models the way xpdld -preload
// does.
func startStack(ctx context.Context, srcModels, tmpRoot string) (*stack, error) {
	dir, err := os.MkdirTemp(tmpRoot, "corpus-")
	if err != nil {
		return nil, err
	}
	st := &stack{corpus: dir}
	if err := copyTree(srcModels, dir); err != nil {
		st.close()
		return nil, err
	}
	query.DefaultPlanCache().SetCapacity(1024)
	st.loader, err = serve.NewToolchainLoader(core.Options{SearchPaths: []string{dir}, Seed: 1})
	if err != nil {
		st.close()
		return nil, err
	}
	st.wrap = &spanLoader{inner: st.loader}
	st.store = serve.NewStore(st.wrap, 0)
	// Fields left zero take NewServer's defaults, which equal xpdld's.
	st.srv = serve.NewServer(serve.Config{
		Store:        st.store,
		AllowRefresh: true,
		TraceSample:  0.1,
		SlowRequest:  500 * time.Millisecond,
		Logger:       obs.NewLogger(io.Discard, obs.LevelInfo, "text"),
	})
	st.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.base = "http://" + st.ln.Addr().String()
	st.hs = &http.Server{
		Handler:           st.srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      40 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(st.ln) }()
	for _, id := range []string{smallModel, bigModel} {
		if _, err := st.store.Get(ctx, id); err != nil {
			st.close()
			return nil, fmt.Errorf("preload %s: %w", id, err)
		}
	}
	return st, nil
}

// close ends watch streams and sweep jobs first (they would pin the
// HTTP drain), shuts the HTTP server down, waits for its Serve loop to
// return and removes the corpus copy. Safe to call more than once and
// on a partially started stack.
func (st *stack) close() {
	st.closeOnce.Do(func() {
		if st.srv != nil {
			st.srv.Close()
		}
		if st.store != nil {
			st.store.CloseWatchers()
		}
		if st.hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := st.hs.Shutdown(ctx); err != nil {
				st.hs.Close()
			}
			cancel()
			<-st.served
		} else if st.ln != nil {
			st.ln.Close()
		}
		os.RemoveAll(st.corpus)
	})
}

// newClient returns a JSON client and its binary twin sharing one
// connection pool, so one closed-loop worker holds one connection.
func (st *stack) newClient() (jsonC, binC *serve.Client, closeIdle func()) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, IdleConnTimeout: 30 * time.Second}
	hc := &http.Client{Transport: tr}
	jsonC = &serve.Client{Base: st.base, HTTP: hc, Proto: serve.ProtoJSON}
	binC = &serve.Client{Base: st.base, HTTP: hc, Proto: serve.ProtoBinary}
	return jsonC, binC, tr.CloseIdleConnections
}

// copyTree copies the regular files below src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// spanLoader wraps the toolchain loader behind the store. Untraced it
// only forwards; while a traced operation is armed (rec non-nil) it
// roots each Load/LoadDelta in a memory-accounting span, so the phase
// spans the toolchain already emits (load → process → parse, fetch,
// resolve, analyze, emit) land under it with wall time and alloc
// deltas.
type spanLoader struct {
	inner *serve.ToolchainLoader
	rec   atomic.Pointer[loaderSpans]
}

// loaderSpans collects the spans of one traced operation.
type loaderSpans struct {
	mu    sync.Mutex
	spans []obs.SpanSnapshot
}

func (r *loaderSpans) add(s obs.SpanSnapshot) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the first recorded span named name.
func (r *loaderSpans) take(name string) (obs.SpanSnapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name {
			return s, true
		}
	}
	return obs.SpanSnapshot{}, false
}

func (l *spanLoader) Load(ctx context.Context, id string) (*serve.Snapshot, error) {
	rec := l.rec.Load()
	if rec == nil {
		return l.inner.Load(ctx, id)
	}
	sp := obs.NewSpan("bench.load")
	snap, err := l.inner.Load(obs.ContextWithSpan(ctx, sp), id)
	sp.Stop()
	rec.add(sp.Snapshot())
	return snap, err
}

func (l *spanLoader) LoadDelta(ctx context.Context, old *serve.Snapshot) (*serve.DeltaResult, error) {
	rec := l.rec.Load()
	if rec == nil {
		return l.inner.LoadDelta(ctx, old)
	}
	sp := obs.NewSpan("bench.load_delta")
	res, err := l.inner.LoadDelta(obs.ContextWithSpan(ctx, sp), old)
	sp.Stop()
	rec.add(sp.Snapshot())
	return res, err
}

func (l *spanLoader) Invalidate() { l.inner.Invalidate() }

// Repo keeps the sweep-job subsystem wired as it is behind xpdld.
func (l *spanLoader) Repo() *repo.Repository { return l.inner.Repo() }

var errNoCorpus = errors.New("model corpus not found (run from the repository root)")
