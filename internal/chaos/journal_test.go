package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/iokit"
	"repro/internal/serve"
)

// journalWcRef builds a small exp/wordcount JobRef for the service
// journal crash matrix.
func journalWcRef(t *testing.T, seed uint64) cluster.JobRef {
	t.Helper()
	ref, err := experiments.ClusterRef(experiments.ClusterJobWordCount, experiments.Config{
		Scale: 0.02, Seed: seed, Splits: 4, Reducers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func journalTerminal(state string) bool {
	return state == serve.StateSucceeded || state == serve.StateFailed || state == serve.StateCanceled
}

// journalOracle replays the same semantics the server promises over a
// truncated journal prefix: submits queue, the first terminal state per
// job wins, non-terminal transitions leave the job queued, and a torn
// (unparsable) tail is dropped. Truncating a valid journal can only
// tear the final line, so parsing stops at the first failure.
func journalOracle(data []byte) map[int]string {
	states := make(map[int]string)
	for _, ln := range bytes.Split(data, []byte("\n")) {
		if len(ln) == 0 {
			continue
		}
		var e struct {
			Op    string           `json:"op"`
			Job   *serve.JobRecord `json:"job"`
			ID    int              `json:"id"`
			State string           `json:"state"`
		}
		if err := json.Unmarshal(ln, &e); err != nil {
			return states // torn tail
		}
		switch e.Op {
		case "submit":
			if e.Job != nil {
				states[e.Job.ID] = serve.StateQueued
			}
		case "state":
			cur, ok := states[e.ID]
			if !ok || journalTerminal(cur) {
				continue
			}
			if journalTerminal(e.State) {
				states[e.ID] = e.State
			} else {
				states[e.ID] = serve.StateQueued
			}
		}
	}
	return states
}

// TestJournalCrashMatrix is the fs-fault seed test for the service
// journal: a donor journal is recorded by driving a real server
// (successes, a cancellation, a job caught queued at shutdown), then
// each seed kills the server "mid-append" by truncating the donor at a
// random byte offset. Every truncation — mid-line or between lines —
// must restart cleanly: terminal outcomes preserved, in-flight jobs
// re-queued, new submissions accepted with a fresh ID, and a second
// reopen after Close still coherent.
func TestJournalCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("journal crash matrix spawns real jobs; skipped in -short mode")
	}
	dir := t.TempDir()
	donorPath := filepath.Join(dir, "donor.jsonl")

	// Record the donor journal with a real server run.
	srv, err := serve.New(serve.Config{Fleet: slowServeHeartbeats, JournalPath: donorPath})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i := uint64(0); i < 2; i++ {
		ref := journalWcRef(t, 61+i)
		if _, err := srv.Submit(serve.SubmitRequest{
			Name: ref.Name, Spec: json.RawMessage(ref.Spec), Tenant: "t",
		}); err != nil {
			t.Fatal(err)
		}
	}
	go cluster.RunWorker(ctx, cluster.WorkerOptions{
		Coordinator: srv.FleetAddr(), Slots: 2, FS: iokit.NewMemFS(),
	})
	if err := srv.Fleet().WaitWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if rec, err := srv.Wait(ctx, id); err != nil || rec.State != serve.StateSucceeded {
			t.Fatalf("donor job %d: %v state %s", id, err, rec.State)
		}
	}
	ref := journalWcRef(t, 63)
	rec, err := srv.Submit(serve.SubmitRequest{
		Name: ref.Name, Spec: json.RawMessage(ref.Spec), Tenant: "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec, err = srv.Cancel(rec.ID); err != nil || rec.State != serve.StateCanceled {
		t.Fatalf("donor cancel: %v state %s", err, rec.State)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	donor, err := os.ReadFile(donorPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(donor) < 64 {
		t.Fatalf("donor journal suspiciously small (%d bytes)", len(donor))
	}

	// crashAt restarts from the donor cut at byte cut, submits job seed
	// refSeed, and reopens; replay names the command that reruns it.
	crashAt := func(t *testing.T, cut int, refSeed uint64, replay string) {
		path := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_")+".jsonl")
		if err := os.WriteFile(path, donor[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := journalOracle(donor[:cut])

		srv, err := serve.New(serve.Config{Fleet: slowServeHeartbeats, JournalPath: path})
		if err != nil {
			t.Fatalf("cut@%d: New: %v\nreplay: %s", cut, err, replay)
		}
		maxID := -1
		for id, st := range want {
			if id > maxID {
				maxID = id
			}
			got, err := srv.Get(id)
			if err != nil {
				t.Fatalf("cut@%d: job %d lost on replay: %v", cut, id, err)
			}
			switch {
			case journalTerminal(st):
				if got.State != st {
					t.Fatalf("cut@%d: job %d state %s, want terminal %s preserved", cut, id, got.State, st)
				}
			default:
				if got.State != serve.StateQueued && got.State != serve.StateRunning {
					t.Fatalf("cut@%d: job %d state %s, want re-queued", cut, id, got.State)
				}
			}
		}
		if got := len(srv.List("t")); got != len(want) {
			t.Fatalf("cut@%d: replay resurrected %d jobs, want %d", cut, got, len(want))
		}

		// The server keeps accepting work after crash recovery, and
		// IDs continue past everything the journal mentioned.
		ref := journalWcRef(t, refSeed)
		rec, err := srv.Submit(serve.SubmitRequest{
			Name: ref.Name, Spec: json.RawMessage(ref.Spec), Tenant: "t",
		})
		if err != nil {
			t.Fatalf("cut@%d: submit after recovery: %v", cut, err)
		}
		if rec.ID != maxID+1 {
			t.Fatalf("cut@%d: post-recovery ID %d, want %d", cut, rec.ID, maxID+1)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("cut@%d: close: %v", cut, err)
		}

		// The repaired-and-extended journal must replay again.
		srv2, err := serve.New(serve.Config{Fleet: slowServeHeartbeats, JournalPath: path})
		if err != nil {
			t.Fatalf("cut@%d: reopen: %v", cut, err)
		}
		for id, st := range want {
			if !journalTerminal(st) {
				continue
			}
			if got, err := srv2.Get(id); err != nil || got.State != st {
				t.Fatalf("cut@%d: reopened job %d: %v state %s, want %s", cut, id, err, got.State, st)
			}
		}
		if err := srv2.Close(); err != nil {
			t.Fatalf("cut@%d: second close: %v", cut, err)
		}
	}

	for _, seed := range soakSeeds(201, 12) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := datagen.NewRNG(seed)
			crashAt(t, 1+rng.Intn(len(donor)-1), 90+seed,
				fmt.Sprintf("go test ./internal/chaos/ -run JournalCrashMatrix -chaos-seed %d", seed))
		})
	}
	// A cut on a line's last byte before its newline leaves a whole entry
	// the next append must not land beside.
	line := 0
	for cut, b := range donor {
		if b != '\n' {
			continue
		}
		line++
		name := fmt.Sprintf("line%d_unterminated", line)
		t.Run(name, func(t *testing.T) {
			crashAt(t, cut, 150+uint64(line), "go test ./internal/chaos/ -run 'JournalCrashMatrix/"+name+"$'")
		})
	}
}

// slowServeHeartbeats mirrors the serve test fleet tuning: heartbeat
// misses never declare the single in-process worker dead mid-test.
var slowServeHeartbeats = cluster.FleetConfig{HeartbeatEvery: 50 * time.Millisecond, HeartbeatMiss: 40}
