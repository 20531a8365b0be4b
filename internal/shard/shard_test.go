package shard

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestRing(t *testing.T, cfg Config) *Ring {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestReplicasDeterministicAcrossRings(t *testing.T) {
	members := []string{"http://a:8360", "http://b:8360", "http://c:8360", "http://d:8360"}
	r1 := newTestRing(t, Config{Members: members, Replicas: 2})
	// Same members, different order: placement must agree.
	r2 := newTestRing(t, Config{Members: []string{members[2], members[0], members[3], members[1]}, Replicas: 2})
	for _, ident := range []string{"dram", "cpu/core0", "gpu", "platform", "nic/eth0"} {
		a, b := r1.Replicas(ident), r2.Replicas(ident)
		if len(a) != 2 || len(b) != 2 {
			t.Fatalf("Replicas(%q): lengths %d/%d, want 2", ident, len(a), len(b))
		}
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("Replicas(%q) disagree across rings: %v vs %v", ident, a, b)
		}
	}
}

func TestReplicasSpreadAcrossMembers(t *testing.T) {
	members := []string{"http://a:8360", "http://b:8360", "http://c:8360"}
	r := newTestRing(t, Config{Members: members, Replicas: 2})
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		ident := "model-" + string(rune('a'+i%26)) + "/" + string(rune('0'+i%10))
		for _, u := range r.Replicas(ident) {
			counts[u]++
		}
	}
	// With 300 idents x 2 replicas over 3 members, a fair hash gives
	// each ~200; anything above zero per member proves distribution,
	// but demand rough balance (within 3x of each other).
	for _, u := range members {
		if counts[u] == 0 {
			t.Fatalf("member %s was never a replica: %v", u, counts)
		}
	}
	for _, u := range members {
		for _, v := range members {
			if counts[u] > 3*counts[v] {
				t.Fatalf("replica imbalance: %v", counts)
			}
		}
	}
}

func TestReplicasClampAndMinimalMoves(t *testing.T) {
	r := newTestRing(t, Config{Members: []string{"http://a:1"}, Replicas: 5})
	if got := r.Replicas("x"); len(got) != 1 {
		t.Fatalf("Replicas clamp: got %v", got)
	}

	// Rendezvous property: adding a member only moves idents TO the new
	// member; surviving placements keep their old members.
	small := newTestRing(t, Config{Members: []string{"http://a:1", "http://b:1"}, Replicas: 1})
	big := newTestRing(t, Config{Members: []string{"http://a:1", "http://b:1", "http://c:1"}, Replicas: 1})
	for i := 0; i < 100; i++ {
		ident := "m" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		before, after := small.Replicas(ident)[0], big.Replicas(ident)[0]
		if after != before && after != "http://c:1" {
			t.Fatalf("ident %q moved %s -> %s without involving the new member", ident, before, after)
		}
	}
}

func TestOrderPrefersHealthyReplicas(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newTestRing(t, Config{Members: members, Replicas: 2})
	reps := r.Replicas("dram")

	order := r.Order("dram")
	if len(order) != 3 {
		t.Fatalf("Order: got %v", order)
	}
	if order[0] != reps[0] && order[0] != reps[1] {
		t.Fatalf("Order leads with non-replica %s (replicas %v)", order[0], reps)
	}

	// Kill the first replica: order must lead with the surviving one.
	r.ReportFailure(reps[0])
	order = r.Order("dram")
	if order[0] != reps[1] {
		t.Fatalf("after killing %s, Order = %v, want lead %s", reps[0], order, reps[1])
	}
	// The dead member still appears, but last.
	if order[len(order)-1] != reps[0] {
		t.Fatalf("dead member not demoted to tail: %v", order)
	}

	// Kill the second replica too: a healthy non-replica must lead.
	r.ReportFailure(reps[1])
	order = r.Order("dram")
	if order[0] == reps[0] || order[0] == reps[1] {
		t.Fatalf("with both replicas down, Order = %v", order)
	}

	// Rejoin via passive success.
	r.ReportSuccess(reps[0])
	order = r.Order("dram")
	if order[0] != reps[0] {
		t.Fatalf("after rejoin of %s, Order = %v", reps[0], order)
	}
}

func TestOrderSpreadsReadsAcrossReplicas(t *testing.T) {
	r := newTestRing(t, Config{Members: []string{"http://a:1", "http://b:1", "http://c:1"}, Replicas: 2})
	reps := r.Replicas("dram")
	leads := map[string]int{}
	for i := 0; i < 100; i++ {
		leads[r.Order("dram")[0]]++
	}
	if leads[reps[0]] == 0 || leads[reps[1]] == 0 {
		t.Fatalf("reads did not spread across replicas: %v (replicas %v)", leads, reps)
	}
}

func TestReportBusyCooldown(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	r := newTestRing(t, Config{Members: []string{"http://a:1", "http://b:1"}, Replicas: 2, now: now})
	reps := r.Replicas("x")

	r.ReportBusy(reps[0], 5*time.Second)
	for i := 0; i < 10; i++ {
		if got := r.Order("x")[0]; got != reps[1] {
			t.Fatalf("cooling member led the order: %v", got)
		}
	}
	st := r.Stats()
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	if st.MembersUp != 2 {
		t.Fatalf("cooldown must not count as down: MembersUp = %d", st.MembersUp)
	}

	// After the deadline the member is eligible again.
	clock = clock.Add(6 * time.Second)
	leads := map[string]int{}
	for i := 0; i < 20; i++ {
		leads[r.Order("x")[0]]++
	}
	if leads[reps[0]] == 0 {
		t.Fatalf("member stayed cooled past Retry-After: %v", leads)
	}
}

func TestProbeHealthTransitions(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/healthz" {
			http.NotFound(w, req)
			return
		}
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	var mu sync.Mutex
	var transitions []bool
	r := newTestRing(t, Config{
		Members:       []string{ts.URL, "http://127.0.0.1:1"}, // second member: nothing listens
		Replicas:      1,
		FailThreshold: 2,
		ProbeTimeout:  500 * time.Millisecond,
		OnTransition: func(member string, up bool) {
			if member == ts.URL {
				mu.Lock()
				transitions = append(transitions, up)
				mu.Unlock()
			}
		},
	})
	ctx := context.Background()

	r.ProbeAll(ctx)
	if st := r.Stats(); st.MembersUp != 2 {
		t.Fatalf("after one sweep MembersUp = %d, want 2 (threshold not reached for dead member)", st.MembersUp)
	}
	r.ProbeAll(ctx)
	if st := r.Stats(); st.MembersUp != 1 || st.TransDown != 1 {
		t.Fatalf("after two sweeps: %+v, want MembersUp 1 TransDown 1", r.Stats())
	}

	// Flap the live member down...
	healthy.Store(false)
	r.ProbeAll(ctx)
	r.ProbeAll(ctx)
	if st := r.Stats(); st.MembersUp != 0 {
		t.Fatalf("after failing probes: %+v", st)
	}
	// ...and back up: one probe success rejoins immediately.
	healthy.Store(true)
	r.ProbeAll(ctx)
	if st := r.Stats(); st.MembersUp != 1 || st.TransUp != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []bool{false, true}
	if len(transitions) != 2 || transitions[0] != want[0] || transitions[1] != want[1] {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestProberLoopConverges(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	r := newTestRing(t, Config{
		Members:       []string{ts.URL, "http://127.0.0.1:1"},
		Replicas:      1,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailThreshold: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.Start(ctx)
	defer r.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.Stats().MembersUp == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("prober never marked the dead member down: %+v", r.Stats())
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no members must fail")
	}
	if _, err := New(Config{Members: []string{"http://a:1", "http://a:1/"}}); err == nil {
		t.Fatal("duplicate members must fail")
	}
	if _, err := New(Config{Members: []string{"  "}}); err == nil {
		t.Fatal("blank member must fail")
	}
}

func TestConcurrentRouting(t *testing.T) {
	r := newTestRing(t, Config{Members: []string{"http://a:1", "http://b:1", "http://c:1"}, Replicas: 2})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				ident := "m" + string(rune('a'+(i+j)%26))
				order := r.Order(ident)
				if len(order) != 3 {
					panic("short order")
				}
				switch j % 10 {
				case 3:
					r.ReportFailure(order[0])
				case 7:
					r.ReportSuccess(order[len(order)-1])
				case 9:
					r.ReportBusy(order[0], time.Millisecond)
				}
			}
		}(i)
	}
	wg.Wait()
	if len(r.Order("anything")) == 0 {
		t.Fatal("Order found no member")
	}
}

// TestRouteFailoverRules pins the one failover loop both routing tiers
// share: no answer marks down, 503 cools down, "not here" moves on
// untouched, any other answer is final, and cancellation stops the walk.
func TestRouteFailoverRules(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	errNoAnswer := errors.New("connection refused")
	for _, tc := range []struct {
		name      string
		answers   []Answer // by attempt; attempts past the end answer 200
		tries     int
		failovers int64
		down      int
		cooling   int
		wantErr   bool
	}{
		{"first member answers", []Answer{{Status: 200}}, 1, 0, 0, 0, false},
		{"no answer marks down", []Answer{{}, {Status: 200}}, 2, 1, 1, 0, false},
		{"503 cools down", []Answer{{Status: 503, RetryAfter: time.Minute}, {Status: 200}}, 2, 1, 0, 1, false},
		{"not here moves on", []Answer{{Status: 404, NotHere: true}, {Status: 200}}, 2, 0, 0, 0, false},
		{"404 is final", []Answer{{Status: 404}}, 1, 0, 0, 0, true},
		{"500 is final", []Answer{{Status: 500}}, 1, 0, 0, 0, true},
		{"every member refuses", []Answer{{}, {}, {}}, 3, 3, 3, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRing(t, Config{Members: members, Replicas: 3})
			tries := 0
			err := r.Route(context.Background(), "m", func(string) (Answer, error) {
				a := Answer{Status: 200}
				if tries < len(tc.answers) {
					a = tc.answers[tries]
				}
				tries++
				switch {
				case a.Status == 0:
					return a, errNoAnswer
				case a.Status != 200:
					return a, errors.New(http.StatusText(a.Status))
				}
				return a, nil
			})
			if (err != nil) != tc.wantErr {
				t.Fatalf("Route error = %v, want error %v", err, tc.wantErr)
			}
			if tries != tc.tries {
				t.Fatalf("%d attempts, want %d", tries, tc.tries)
			}
			down, cooling := 0, 0
			for _, m := range r.Members() {
				if !m.Up {
					down++
				}
				if m.Cooling {
					cooling++
				}
			}
			if st := r.Stats(); st.Failovers != tc.failovers || down != tc.down || cooling != tc.cooling {
				t.Fatalf("failovers %d, down %d, cooling %d; want %d, %d, %d",
					st.Failovers, down, cooling, tc.failovers, tc.down, tc.cooling)
			}
		})
	}

	// A canceled context stops the walk without blaming the member.
	r := newTestRing(t, Config{Members: members, Replicas: 3})
	ctx, cancel := context.WithCancel(context.Background())
	tries := 0
	err := r.Route(ctx, "m", func(string) (Answer, error) {
		tries++
		cancel()
		return Answer{}, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) || tries != 1 {
		t.Fatalf("canceled walk: err %v after %d attempts", err, tries)
	}
	if st := r.Stats(); st.Failovers != 0 || st.MembersUp != 3 {
		t.Fatalf("cancellation was blamed on a member: %+v", st)
	}
}
