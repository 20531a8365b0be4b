package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Router tests: client-side routing over a 3-member cluster — replica
// placement, 503 cooldown, authoritative non-503 answers, and the
// tentpole kill-a-replica stress suite (zero failed requests while a
// member dies mid-load, asserted under -race).

// clusterMember is one in-process xpdld: its own store, loader, and
// HTTP front end.
type clusterMember struct {
	loader *stubDeltaLoader
	store  *Store
	ts     *httptest.Server
}

func newCluster(t *testing.T, n int) []*clusterMember {
	t.Helper()
	members := make([]*clusterMember, n)
	for i := range members {
		l := &stubDeltaLoader{newStubLoader()}
		st := NewStore(l, 0)
		srv := NewServer(Config{Store: st, MaxInFlight: 256})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		members[i] = &clusterMember{loader: l, store: st, ts: ts}
	}
	return members
}

func clusterURLs(members []*clusterMember) []string {
	urls := make([]string, len(members))
	for i, m := range members {
		urls[i] = m.ts.URL
	}
	return urls
}

func TestRouterRoutesAndSpreadsReads(t *testing.T) {
	members := newCluster(t, 3)
	rc, err := NewRouterClient(RouterConfig{Members: clusterURLs(members), Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for i := 0; i < 40; i++ {
		el, err := rc.Element(ctx, "m", "m")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if el.ID != "m" {
			t.Fatalf("request %d answered element %q", i, el.ID)
		}
	}
	// Reads landed on both replicas — the model is resident exactly
	// where the ring sent traffic.
	reps := rc.Ring().Replicas("m")
	resident := 0
	for _, m := range members {
		if ms, err := NewClient(m.ts.URL).Models(ctx); err == nil && len(ms.Models) > 0 {
			resident++
			found := false
			for _, r := range reps {
				if r == m.ts.URL {
					found = true
				}
			}
			if !found {
				t.Fatalf("model resident on non-replica %s (replicas %v)", m.ts.URL, reps)
			}
		}
	}
	if resident != 2 {
		t.Fatalf("model resident on %d members, want both replicas", resident)
	}
	if st := rc.Ring().Stats(); st.Picks == 0 || st.Failovers != 0 {
		t.Fatalf("stats after clean run: %+v", st)
	}
}

func TestRouterAuthoritativeErrorsDoNotFailover(t *testing.T) {
	members := newCluster(t, 3)
	rc, err := NewRouterClient(RouterConfig{Members: clusterURLs(members), Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := rc.Ring().Stats().Failovers
	_, err = rc.Element(context.Background(), "m", "nope/missing")
	var se *apiStatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("missing element: %v, want a 404", err)
	}
	if got := rc.Ring().Stats().Failovers - before; got != 0 {
		t.Fatalf("a 404 caused %d failovers; it is authoritative", got)
	}

	// A watch answered with the wrong Content-Type is a protocol
	// violation, not a dead member: Watch must neither mark the member
	// down nor retry it elsewhere.
	var hits atomic.Int64
	wrongType := func() string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, "{}")
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	wrc, err := NewRouterClient(RouterConfig{Members: []string{wrongType(), wrongType()}, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = wrc.Watch(context.Background(), "m", 0, func(WatchEvent) error { return nil })
	var cte *ContentTypeError
	if !errors.As(err, &cte) {
		t.Fatalf("watch of a wrong-type stream: %v, want a ContentTypeError", err)
	}
	if st := wrc.Ring().Stats(); st.Failovers != 0 || st.MembersUp != 2 || hits.Load() != 1 {
		t.Fatalf("a ContentTypeError failed over: %+v after %d requests", st, hits.Load())
	}
}

func TestRouterBusyMemberCoolsDown(t *testing.T) {
	members := newCluster(t, 3)
	urls := clusterURLs(members)

	// Front one member with an always-503 (Retry-After: 30) shield.
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"overloaded"}`)
	}))
	defer busy.Close()
	urls[0] = busy.URL

	rc, err := NewRouterClient(RouterConfig{Members: urls, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := rc.Element(ctx, "m", "m"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := rc.Ring().Stats()
	if st.Failovers == 0 {
		t.Fatal("503s never counted as failovers")
	}
	// The cooldown means the busy member is tried once, not 20 times.
	if st.Failovers > 3 {
		t.Fatalf("busy member was retried %d times despite Retry-After", st.Failovers)
	}
	if st.MembersUp != 3 {
		t.Fatalf("busy is not down: MembersUp = %d, want 3", st.MembersUp)
	}
	for _, m := range rc.Ring().Members() {
		if m.URL == strings.TrimRight(busy.URL, "/") && !m.Cooling {
			t.Fatal("busy member not marked cooling")
		}
	}
}

// TestRouterKillReplicaMidLoad is the tentpole stress suite: 16
// workers hammer a 3-member cluster through the RouterClient while one
// replica of the hot model is killed mid-run. The ring must absorb the
// kill — every request succeeds (in-flight failures fail over
// transparently), the dead member is marked down, and the failover
// counter climbs.
func TestRouterKillReplicaMidLoad(t *testing.T) {
	const (
		workers      = 16
		requestsEach = 150
	)
	members := newCluster(t, 3)
	rc, err := NewRouterClient(RouterConfig{Members: clusterURLs(members), Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Warm every member so the kill never races a cold load.
	for _, m := range members {
		if _, err := m.store.Get(ctx, "m"); err != nil {
			t.Fatal(err)
		}
	}

	// The victim must carry real traffic: kill the first replica.
	reps := rc.Ring().Replicas("m")
	var victim *clusterMember
	for _, m := range members {
		if m.ts.URL == reps[0] {
			victim = m
		}
	}
	if victim == nil {
		t.Fatalf("replica %s not in cluster", reps[0])
	}

	var fired, failed, done atomic.Int64
	killAt := int64(workers * requestsEach / 3)
	killed := make(chan struct{})
	var killOnce sync.Once

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requestsEach; i++ {
				if fired.Add(1) == killAt {
					killOnce.Do(func() {
						victim.ts.CloseClientConnections()
						victim.ts.Close()
						close(killed)
					})
				}
				var err error
				if i%2 == 0 {
					_, err = rc.Element(ctx, "m", "m")
				} else {
					_, err = rc.Select(ctx, "m", "//cpu", 0)
				}
				if err != nil {
					failed.Add(1)
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	<-killed

	if failed.Load() != 0 {
		t.Fatalf("%d requests failed across the kill", failed.Load())
	}
	if got := done.Load(); got != workers*requestsEach {
		t.Fatalf("completed %d/%d requests", got, workers*requestsEach)
	}
	st := rc.Ring().Stats()
	if st.Failovers == 0 {
		t.Fatal("kill produced no failovers — the victim carried no traffic")
	}
	if st.MembersUp != 2 || st.TransDown == 0 {
		t.Fatalf("ring never marked the victim down: %+v", st)
	}
	// Post-detection traffic flows without touching the corpse.
	failoversAfter := st.Failovers
	for i := 0; i < 50; i++ {
		if _, err := rc.Element(ctx, "m", "m"); err != nil {
			t.Fatalf("post-kill request %d: %v", i, err)
		}
	}
	if got := rc.Ring().Stats().Failovers; got != failoversAfter {
		t.Fatalf("down member still receives traffic: failovers %d -> %d", failoversAfter, got)
	}
	t.Logf("kill absorbed: %d requests, %d failovers, stats %+v", done.Load(), st.Failovers, st)
}

// TestRouterProberRejoinsMember exercises active health probing end to
// end: a member marked down by passive failure rejoins once /healthz
// answers again.
func TestRouterProberRejoinsMember(t *testing.T) {
	members := newCluster(t, 2)
	rc, err := NewRouterClient(RouterConfig{
		Members:       clusterURLs(members),
		Replicas:      2,
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rc.Start(ctx)
	defer rc.Stop()

	rc.Ring().ReportFailure(members[0].ts.URL)
	if st := rc.Ring().Stats(); st.MembersUp != 1 {
		t.Fatalf("passive failure did not mark down: %+v", st)
	}
	// The member is alive (we never killed it); the prober rejoins it.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rc.Ring().Stats().MembersUp == 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("prober never rejoined a healthy member: %+v", rc.Ring().Stats())
}

// TestRouterWatchFailsOverOnMemberDeath pins the watch failover
// contract: the stream survives its member's death by restarting on
// another member from since=0 (cursors are per-member).
func TestRouterWatchFailsOverOnMemberDeath(t *testing.T) {
	members := newCluster(t, 2)
	rc, err := NewRouterClient(RouterConfig{Members: clusterURLs(members), Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, m := range members {
		if _, err := m.store.Get(ctx, "m"); err != nil {
			t.Fatal(err)
		}
	}

	watchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var events atomic.Int64
	sawTwo := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- rc.Watch(watchCtx, "m", 0, func(ev WatchEvent) error {
			if events.Add(1) == 2 {
				close(sawTwo)
			}
			return nil
		})
	}()

	// The watch pinned one member; kill both candidates' ambiguity by
	// killing whichever one the stream is NOT guaranteed to be on is
	// impossible from outside — so kill them one at a time and let the
	// failover find the survivor. First kill the ring's top pick.
	time.Sleep(100 * time.Millisecond)
	first := rc.Ring().Replicas("m")[0]
	for _, m := range members {
		if m.ts.URL == first {
			m.ts.CloseClientConnections()
			m.ts.Close()
		}
	}
	// The surviving member publishes an event the resumed stream must
	// deliver (its replayed history also counts).
	for _, m := range members {
		if m.ts.URL != first {
			m.loader.bumpVersion("m")
			if _, err := m.store.RefreshDetail(ctx, "m"); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-sawTwo:
	case err := <-done:
		t.Fatalf("watch ended prematurely: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatalf("watch never recovered after member death (%d events)", events.Load())
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("watch ended with %v, want context.Canceled", err)
	}
}
