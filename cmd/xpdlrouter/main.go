// Command xpdlrouter is the thin routing tier in front of a cluster of
// xpdld members, for clients that should not carry routing logic
// themselves. It keeps the same rendezvous ring the client-side
// RouterClient uses: every /v1/models/{model}/... request hashes the
// model identifier to its replica set (factor -replicas), is forwarded
// to a healthy replica, spreads across replicas, and fails over —
// inside the one client request — under the failover rules of package
// shard (Ring.Route). A job lives on the one member that accepted it,
// so /v1/jobs/{id}... requests walk the members until one knows the
// job: there a member's 404 means "not here". Other non-model paths
// (/v1/models, /v1/jobs, /v1/stats/...) forward to any healthy member.
//
// Membership is health-checked: a background prober hits each member's
// /healthz every -probe-interval, marking members down after
// -fail-threshold consecutive failures and rejoining them when they
// answer again; the request path reports failures passively, so a dead
// member is usually down before the prober notices.
//
// Usage:
//
//	xpdlrouter -addr :8370 -members http://10.0.0.1:8360,http://10.0.0.2:8360,http://10.0.0.3:8360
//
// The router's own endpoints:
//
//	GET /healthz   router liveness + per-member health
//	GET /metrics   Prometheus metrics, including the xpdl_route_* family
//	               (picks, failovers, member health transitions)
//
// Everything else is forwarded verbatim — including SSE streams, which
// are flushed through unbuffered. Responses are streamed, not
// buffered; request bodies are buffered (up to 16 MiB) so a forward
// can be retried on the next member.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xpdl/internal/obs"
	"xpdl/internal/repo"
	"xpdl/internal/serve"
	"xpdl/internal/shard"
)

// maxBufferedBody bounds the request body copy kept for retries.
const maxBufferedBody = 16 << 20

// hopHeaders are the HTTP/1.1 hop-by-hop headers a proxy must strip.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

type router struct {
	ring    *shard.Ring
	forward *http.Client
}

func main() {
	var (
		addr       = flag.String("addr", ":8370", "listen address")
		members    = flag.String("members", "", "comma-separated base URLs of the xpdld cluster members (required)")
		replicas   = flag.Int("replicas", 2, "per-model replica placement factor")
		probeEvery = flag.Duration("probe-interval", 2*time.Second, "member health probe period")
		probeTO    = flag.Duration("probe-timeout", time.Second, "single health probe timeout")
		failAfter  = flag.Int("fail-threshold", 2, "consecutive probe failures before a member is marked down")
	)
	flag.Parse()
	var urls []string
	for _, m := range strings.Split(*members, ",") {
		if m = strings.TrimRight(strings.TrimSpace(m), "/"); m != "" {
			urls = append(urls, m)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "xpdlrouter: -members is required")
		os.Exit(2)
	}

	ring, err := shard.New(shard.Config{
		Members:       urls,
		Replicas:      *replicas,
		ProbeInterval: *probeEvery,
		ProbeTimeout:  *probeTO,
		FailThreshold: *failAfter,
		OnTransition: func(member string, up bool) {
			state := "down"
			if up {
				state = "up"
			}
			log.Printf("xpdlrouter: member %s is %s", member, state)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpdlrouter:", err)
		os.Exit(2)
	}
	obs.RegisterRuntimeMetrics(obs.Default())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ring.Start(ctx)
	defer ring.Stop()

	httpSrv := &http.Server{
		Addr: *addr,
		// No overall forward timeout: SSE forwards are long-lived. The
		// members' own request timeouts bound regular queries.
		Handler:           newHandler(ring, &http.Client{Transport: serve.SharedTransport}),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("xpdlrouter: routing to %d members on %s (replicas %d)", len(urls), *addr, *replicas)
		errCh <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "xpdlrouter:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	log.Print("xpdlrouter: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutdownCtx)
}

// newHandler builds the routing tier over ring: the router's own
// /healthz and /metrics, and everything else forwarded to the members
// through client.
func newHandler(ring *shard.Ring, client *http.Client) http.Handler {
	rt := &router{ring: ring, forward: client}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.Default().WritePrometheus(w)
	})
	mux.HandleFunc("/", rt.handleForward)
	return mux
}

func (rt *router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	members := rt.ring.Members()
	up := 0
	for _, m := range members {
		if m.Up {
			up++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if up == 0 {
		// A router with no live members cannot serve anything; say so to
		// whatever health-checks the router itself.
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":  map[bool]string{true: "ok", false: "no live members"}[up > 0],
		"members": members,
	})
}

// modelIdentOf extracts the routing key from a request path:
// /v1/models/{ident}/... hashes per model; everything else routes with
// the empty ident (any healthy member).
func modelIdentOf(path string) string {
	const prefix = "/v1/models/"
	if !strings.HasPrefix(path, prefix) {
		return ""
	}
	rest := path[len(prefix):]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func (rt *router) handleForward(w http.ResponseWriter, r *http.Request) {
	ident := modelIdentOf(r.URL.Path)

	// Buffer the body so a failed forward can retry on the next member.
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxBufferedBody+1))
		r.Body.Close()
		if err != nil {
			http.Error(w, "reading request body", http.StatusBadRequest)
			return
		}
		if len(body) > maxBufferedBody {
			http.Error(w, "request body too large to route", http.StatusRequestEntityTooLarge)
			return
		}
	}

	jobPath := strings.HasPrefix(r.URL.Path, "/v1/jobs/")
	// last holds the newest member response: the final answer, or, when
	// no member gave one, the last 503 or "not here" to relay instead.
	var last *http.Response
	_ = rt.ring.Route(r.Context(), ident, func(member string) (shard.Answer, error) {
		resp, err := rt.forwardTo(r, member, body)
		if err != nil {
			return shard.Answer{}, err
		}
		if last != nil {
			last.Body.Close()
		}
		last = resp
		return shard.Answer{
			Status:     resp.StatusCode,
			RetryAfter: repo.RetryAfter(resp),
			NotHere:    jobPath && resp.StatusCode == http.StatusNotFound,
		}, nil
	})
	if last != nil {
		rt.relay(w, last)
		return
	}
	if r.Context().Err() != nil {
		return // the client hung up; nothing left to answer
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadGateway)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": "no cluster member reachable"})
}

func (rt *router) forwardTo(r *http.Request, member string, body []byte) (*http.Response, error) {
	u := member + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	for _, h := range hopHeaders {
		req.Header.Del(h)
	}
	// Standard reverse-proxy provenance.
	if host, _, ok := strings.Cut(r.RemoteAddr, ":"); ok && host != "" {
		prior := req.Header.Get("X-Forwarded-For")
		if prior != "" {
			host = prior + ", " + host
		}
		req.Header.Set("X-Forwarded-For", host)
	}
	return rt.forward.Do(req)
}

// relay streams one upstream response to the client, flushing as it
// goes so SSE events pass through unbuffered.
func (rt *router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	for _, hh := range hopHeaders {
		h.Del(hh)
	}
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
