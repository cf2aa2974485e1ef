package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/serve"
	"repro/internal/workloads/pagerank"
)

// TestServePipeline drives the pipeline endpoint over HTTP: submit the
// registered iterative-PageRank pipeline, wait for it, and require its
// output byte-identical to the same pipeline run in process. Bad
// references must be rejected at admission.
func TestServePipeline(t *testing.T) {
	srv, err := serve.New(serve.Config{Fleet: slowHeartbeats})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler(false))
	defer ts.Close()
	c := serve.NewClient(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	serveWorkers(t, ctx, srv, 2, 3)

	iterSpec := pagerank.IterSpec{Nodes: 150, AvgDegree: 5, Seed: 9, Parts: 3, MaxIters: 3}
	specJSON, err := json.Marshal(iterSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Unknown pipelines and plain-job names must fail at admission.
	if _, err := c.SubmitPipeline(ctx, serve.SubmitRequest{Name: "no-such-pipeline"}); err == nil {
		t.Fatal("SubmitPipeline accepted an unregistered pipeline")
	}

	rec, err := c.SubmitPipeline(ctx, serve.SubmitRequest{
		Name: "pagerank-iter", Spec: specJSON, Tenant: "analytics",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != serve.KindPipeline {
		t.Fatalf("record kind %q, want %q", rec.Kind, serve.KindPipeline)
	}

	rec, err = c.WaitJob(ctx, rec.ID, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != serve.StateSucceeded {
		t.Fatalf("pipeline %d ended %s: %s", rec.ID, rec.State, rec.Error)
	}

	// The service's retained result must match the in-process run.
	want, err := dag.Run(ctx, pagerank.NewIterPipeline(iterSpec), dag.Config{Engine: &dag.InProcess{}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Output(ctx, rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	var wantLines bytes.Buffer
	for _, part := range want.Output {
		for _, r := range part {
			wantLines.WriteString(string(r.Key) + "\t" + string(r.Value) + "\n")
		}
	}
	if !bytes.Equal(out, wantLines.Bytes()) {
		t.Fatalf("pipeline output differs from in-process run (%d vs %d bytes)", len(out), wantLines.Len())
	}

	// The record shows up in listings with its kind.
	recs, err := c.List(ctx, "analytics")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.ID == rec.ID && r.Kind == serve.KindPipeline && strings.HasPrefix(r.Name, "pagerank-iter") {
			found = true
		}
	}
	if !found {
		t.Fatalf("pipeline record missing from tenant listing: %+v", recs)
	}
}
