package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"xpdl/internal/core"
	"xpdl/internal/scenario"
	"xpdl/internal/serve"
	"xpdl/internal/shard"
)

// TestRouterFindsJobOnItsMember submits a sweep through the router to
// a 3-member cluster (R=3) and polls it 50 times through the router.
// The job lives on the one member that accepted it; every poll must
// find it there, whichever member the ring tries first.
func TestRouterFindsJobOnItsMember(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		loader, err := serve.NewToolchainLoader(core.Options{SearchPaths: []string{filepath.Join("..", "..", "models")}})
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.NewServer(serve.Config{Store: serve.NewStore(loader, 0)})
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	ring, err := shard.New(shard.Config{Members: urls, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(newHandler(ring, &http.Client{}))
	defer router.Close()
	c := serve.NewClient(router.URL)
	ctx := context.Background()

	acc, err := c.Sweep(ctx, "liu_gpu_server", scenario.Spec{
		Params: []scenario.ParamSpec{
			{Name: "L1size", Target: "gpu1", Unit: "KB", Values: []string{"16", "32", "48"}},
		},
		Objectives: []scenario.ObjectiveSpec{{Name: "static_w", Kind: scenario.KindStaticPower}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		info, err := c.JobStatus(ctx, acc.Job, false)
		if err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		if info.ID != acc.Job {
			t.Fatalf("poll %d answered job %s, want %s", i, info.ID, acc.Job)
		}
	}
	// The job stream is routed the same way and ends with the terminal
	// event.
	var last serve.JobEvent
	if err := c.JobStream(ctx, acc.Job, 0, func(ev serve.JobEvent) error {
		last = ev
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last.Type != "done" {
		t.Fatalf("job stream ended with %+v, want the done event", last)
	}
	if st := ring.Stats(); st.Failovers != 0 || st.MembersUp != 3 {
		t.Fatalf("job lookups touched member health: %+v", st)
	}
}
