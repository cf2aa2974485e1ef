package dag_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/datagen"
	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/workloads/pagerank"
)

// runJob is the naive job-per-stage baseline: every stage's input is
// re-materialized in the driver and re-fed as memory splits.
func runJob(t *testing.T, job *mr.Job, parts [][]mr.Record) *mr.Result {
	t.Helper()
	splits := make([]mr.Split, len(parts))
	for i := range parts {
		splits[i] = &mr.MemSplit{Recs: parts[i]}
	}
	res, err := mr.Run(job, splits)
	if err != nil {
		t.Fatalf("%s: %v", job.Name, err)
	}
	return res
}

// naiveChain runs the same iterative PageRank as independent jobs
// chained through the driver, returning the final rank partitions, the
// iteration count, and the record bytes that crossed the driver.
func naiveChain(t *testing.T, spec pagerank.IterSpec) ([][]mr.Record, int, int64) {
	t.Helper()
	parts := pagerank.IterInputs(spec)
	driverBytes := partsBytes(parts)
	iters := 0
	for i := 0; i < spec.MaxIters; i++ {
		rres := runJob(t, pagerank.NewRankJob(spec.Nodes, spec.Parts), parts)
		parts = rres.Output
		dres := runJob(t, pagerank.NewDeltaJob(spec.Parts), parts)
		nres := runJob(t, pagerank.NewNormJob(), dres.Output)
		// Chained through the driver: every stage's full output lands here.
		driverBytes += partsBytes(parts) + partsBytes(dres.Output) + partsBytes(nres.Output)
		iters = i + 1
		if spec.Epsilon > 0 {
			delta, err := pagerank.TotalDelta(map[string][][]mr.Record{"norm": nres.Output})
			if err != nil {
				t.Fatal(err)
			}
			if delta < spec.Epsilon {
				break
			}
		}
	}
	return parts, iters, driverBytes
}

func partsBytes(parts [][]mr.Record) int64 {
	var n int64
	for _, part := range parts {
		for _, r := range part {
			n += int64(len(r.Key) + len(r.Value))
		}
	}
	return n
}

func assertPartsEqual(t *testing.T, label string, got, want [][]mr.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partitions, want %d", label, len(got), len(want))
	}
	for p := range want {
		if len(got[p]) != len(want[p]) {
			t.Fatalf("%s: partition %d has %d records, want %d", label, p, len(got[p]), len(want[p]))
		}
		for i := range want[p] {
			if !bytes.Equal(got[p][i].Key, want[p][i].Key) || !bytes.Equal(got[p][i].Value, want[p][i].Value) {
				t.Fatalf("%s: partition %d record %d differs: %q=%q vs %q=%q",
					label, p, i, got[p][i].Key, got[p][i].Value, want[p][i].Key, want[p][i].Value)
			}
		}
	}
}

// TestPipelineInProcessMatchesNaiveChain is the core no-re-spill
// equivalence: the dag runner's handoff of rank partitions between
// stages (and across iterations) must be byte-identical to chaining
// the same three jobs through the driver, while moving far fewer bytes
// through the driver — and the pipeline's stage workspaces must be
// swept from the shared filesystem by the time Run returns.
func TestPipelineInProcessMatchesNaiveChain(t *testing.T) {
	spec := pagerank.IterSpec{Nodes: 240, AvgDegree: 6, Seed: 7, Parts: 4, MaxIters: 4}
	tracker := &iokit.TrackFS{Inner: iokit.NewMemFS()}

	res, err := dag.Run(context.Background(), pagerank.NewIterPipeline(spec), pagerank.IterInputs(spec),
		dag.Config{Engine: &dag.InProcess{FS: tracker}})
	if err != nil {
		t.Fatal(err)
	}
	wantParts, wantIters, naiveDriverBytes := naiveChain(t, spec)

	if res.Iterations != wantIters {
		t.Fatalf("pipeline ran %d iterations, naive chain ran %d", res.Iterations, wantIters)
	}
	assertPartsEqual(t, "final ranks", res.Output, wantParts)

	// Sanity against the sequential reference implementation.
	ranks, err := pagerank.RanksFromParts(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.NewGraph(datagen.GraphConfig{Seed: spec.Seed, Nodes: spec.Nodes, AvgOutDegree: spec.AvgDegree})
	ref := pagerank.Reference(g, spec.MaxIters)
	if len(ranks) != len(ref) {
		t.Fatalf("pipeline produced %d ranks, reference has %d", len(ranks), len(ref))
	}
	for id, want := range ref {
		if got := ranks[id]; math.Abs(got-want) > 1e-9 {
			t.Fatalf("node %d rank %g, reference %g", id, got, want)
		}
	}

	// The entire point of the pipeline: rank output (structs + adjacency,
	// the bulk of the data) never re-spills through the driver.
	if res.DriverBytes >= naiveDriverBytes {
		t.Fatalf("pipeline moved %d driver bytes, naive chain moved %d — expected a reduction",
			res.DriverBytes, naiveDriverBytes)
	}
	if len(res.Stages) != 3*res.Iterations {
		t.Fatalf("%d stage stats, want %d", len(res.Stages), 3*res.Iterations)
	}

	files, err := tracker.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("stage workspaces not swept: %v", files)
	}
	if n := tracker.OpenHandles(); n != 0 {
		t.Fatalf("pipeline leaked %d file handles", n)
	}
}

// TestPipelineUntilStopsEarly checks the convergence predicate: with a
// loose epsilon the norm stage's delta crosses the threshold well
// before MaxIters.
func TestPipelineUntilStopsEarly(t *testing.T) {
	spec := pagerank.IterSpec{Nodes: 200, AvgDegree: 5, Seed: 11, Parts: 3, MaxIters: 50, Epsilon: 0.05}
	res, err := dag.Run(context.Background(), pagerank.NewIterPipeline(spec), pagerank.IterInputs(spec),
		dag.Config{Engine: &dag.InProcess{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= spec.MaxIters {
		t.Fatalf("ran all %d iterations; Until never fired", res.Iterations)
	}
	wantParts, wantIters, _ := naiveChain(t, spec)
	if res.Iterations != wantIters {
		t.Fatalf("pipeline converged after %d iterations, naive chain after %d", res.Iterations, wantIters)
	}
	assertPartsEqual(t, "converged ranks", res.Output, wantParts)
}

// startFleet brings up a fleet with n in-process workers on tracked
// filesystems.
func startFleet(t *testing.T, ctx context.Context, n, slots int) (*cluster.Fleet, []*iokit.TrackFS, chan error) {
	t.Helper()
	f, err := cluster.NewFleet(cluster.FleetConfig{HeartbeatEvery: 50 * time.Millisecond, HeartbeatMiss: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	trackers := make([]*iokit.TrackFS, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		trackers[i] = &iokit.TrackFS{Inner: iokit.NewMemFS()}
		fs := trackers[i]
		go func() {
			errs <- cluster.RunWorker(ctx, cluster.WorkerOptions{Coordinator: f.Addr(), Slots: slots, FS: fs})
		}()
	}
	if err := f.WaitWorkers(ctx, n); err != nil {
		t.Fatal(err)
	}
	return f, trackers, errs
}

// pollSwept waits for every worker filesystem to drain (cleanup
// announcements ride heartbeats) and checks for leaked handles.
func pollSwept(t *testing.T, trackers []*iokit.TrackFS) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i, tr := range trackers {
		for {
			files, err := tr.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(files) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d still holds %d files after pipeline cleanup: %v",
					i, len(files), files[:min(len(files), 5)])
			}
			time.Sleep(20 * time.Millisecond)
		}
		if n := tr.OpenHandles(); n != 0 {
			t.Errorf("worker %d leaked %d file handles", i, n)
		}
	}
}

// TestPipelineFleetMatchesInProcess runs the same pipeline on a
// three-worker fleet — reduce output retained worker-side as handoff
// files, next stage's maps pinned to the holders — and requires the
// final ranks byte-identical to the in-process run, with every
// retained workspace swept once the pipeline finishes.
func TestPipelineFleetMatchesInProcess(t *testing.T) {
	spec := pagerank.IterSpec{Nodes: 180, AvgDegree: 5, Seed: 3, Parts: 3, MaxIters: 3}
	want, err := dag.Run(context.Background(), pagerank.NewIterPipeline(spec), pagerank.IterInputs(spec),
		dag.Config{Engine: &dag.InProcess{}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	f, trackers, workerErr := startFleet(t, ctx, 3, 2)
	eng := &dag.FleetEngine{Fleet: f}

	got, err := dag.Run(ctx, pagerank.NewIterPipeline(spec), pagerank.IterInputs(spec),
		dag.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("fleet ran %d iterations, in-process ran %d", got.Iterations, want.Iterations)
	}
	assertPartsEqual(t, "fleet vs in-process", got.Output, want.Output)

	// rank (consumed by delta, carried) and delta (consumed by norm) are
	// kept engine-side every iteration; only norm's single record visits
	// the driver.
	var kept int
	for _, st := range got.Stages {
		if st.Kept {
			kept++
		}
	}
	if kept != 2*got.Iterations {
		t.Fatalf("kept-stage count %d over %d iterations, want %d", kept, got.Iterations, 2*got.Iterations)
	}

	pollSwept(t, trackers)
	f.Shutdown()
	for i := 0; i < 3; i++ {
		if err := <-workerErr; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// failSpec configures the dagtest jobs registered in init below.
const (
	genJobName  = "dagtest/gen"
	boomJobName = "dagtest/boom"
)

func init() {
	cluster.RegisterJob(genJobName, func([]byte) (*mr.Job, []mr.Split, error) {
		return genJob(), nil, nil
	})
	cluster.RegisterJob(boomJobName, func([]byte) (*mr.Job, []mr.Split, error) {
		return boomJob(), nil, nil
	})
}

// genJob passes its input through, shuffled over two partitions.
func genJob() *mr.Job {
	return &mr.Job{
		Name: "dagtest-gen",
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error {
			return out.Emit(key, value)
		}),
		NewReducer: mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
			for {
				v, ok := values.Next()
				if !ok {
					return nil
				}
				if err := out.Emit(key, v); err != nil {
					return err
				}
			}
		}),
		NumReduceTasks: 2,
		Deterministic:  true,
	}
}

// boomJob fails every map attempt.
func boomJob() *mr.Job {
	return &mr.Job{
		Name: "dagtest-boom",
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error {
			return errors.New("boom: injected stage failure")
		}),
		NewReducer: mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
			return nil
		}),
		NumReduceTasks: 2,
		Deterministic:  true,
	}
}

func failingPipeline() (*dag.Pipeline, [][]mr.Record) {
	p := &dag.Pipeline{
		Name: "dagtest-fail",
		Stages: []dag.Stage{
			{
				Name:  "gen",
				Build: func(int) *mr.Job { return genJob() },
				Ref:   func(int) cluster.JobRef { return cluster.JobRef{Name: genJobName} },
			},
			{
				Name: "boom", From: "gen",
				Build: func(int) *mr.Job { return boomJob() },
				Ref:   func(int) cluster.JobRef { return cluster.JobRef{Name: boomJobName} },
			},
		},
		Output: "boom",
	}
	inputs := [][]mr.Record{
		{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}},
		{{Key: []byte("c"), Value: []byte("3")}},
	}
	return p, inputs
}

// TestPipelineSweepsOnStageFailure is the leak regression test: when a
// downstream stage fails permanently, the upstream stage's
// intermediate files must still be swept — in process, nothing may
// remain on the shared filesystem by the time Run returns.
func TestPipelineSweepsOnStageFailure(t *testing.T) {
	tracker := &iokit.TrackFS{Inner: iokit.NewMemFS()}
	p, inputs := failingPipeline()
	_, err := dag.Run(context.Background(), p, inputs, dag.Config{Engine: &dag.InProcess{FS: tracker}})
	if err == nil {
		t.Fatal("pipeline with a failing stage reported success")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error does not name the failing stage's fault: %v", err)
	}
	files, lerr := tracker.List()
	if lerr != nil {
		t.Fatal(lerr)
	}
	if len(files) != 0 {
		t.Fatalf("failed pipeline leaked %d intermediate files: %v", len(files), files)
	}
	if n := tracker.OpenHandles(); n != 0 {
		t.Fatalf("failed pipeline leaked %d file handles", n)
	}
}

// TestPipelineFleetSweepsOnStageFailure is the fleet variant: the gen
// stage's retained workspace (handoff files included) must be released
// even though its consumer failed permanently and the pipeline never
// reached the normal release path.
func TestPipelineFleetSweepsOnStageFailure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	f, trackers, workerErr := startFleet(t, ctx, 2, 2)
	eng := &dag.FleetEngine{Fleet: f, MaxTaskAttempts: 1}

	p, inputs := failingPipeline()
	_, err := dag.Run(ctx, p, inputs, dag.Config{Engine: eng})
	if err == nil {
		t.Fatal("pipeline with a failing stage reported success")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error does not name the failing stage's fault: %v", err)
	}

	pollSwept(t, trackers)
	f.Shutdown()
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// lossyEngine wraps InProcess but reports the kept input lost on the
// consumer's first attempt — the shape of a fleet handoff dying with
// its worker. The runner must re-run the producing stage via sched's
// DepLostError protocol (without charging the retry budget) and then
// complete.
type lossyEngine struct {
	dag.InProcess
	runs    map[string]int
	dropped bool
}

func (e *lossyEngine) RunStage(ctx context.Context, run dag.StageRun) (*dag.StageResult, error) {
	e.runs[run.Stage.Name]++
	if run.Stage.From != "" && !e.dropped {
		e.dropped = true
		return nil, fmt.Errorf("%w: simulated handoff death", dag.ErrInputLost)
	}
	return e.InProcess.RunStage(ctx, run)
}

func TestRunnerRerunsProducerOnInputLost(t *testing.T) {
	p, inputs := failingPipeline()
	// Make the downstream stage viable: replace boom with gen's job.
	p.Stages[1].Build = func(int) *mr.Job { return genJob() }
	eng := &lossyEngine{runs: make(map[string]int)}

	res, err := dag.Run(context.Background(), p, inputs, dag.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if eng.runs["gen"] != 2 {
		t.Fatalf("producing stage ran %d times, want 2 (initial + lost-input re-run)", eng.runs["gen"])
	}
	if eng.runs["boom"] != 2 {
		t.Fatalf("consuming stage ran %d times, want 2 (lost input + success)", eng.runs["boom"])
	}
	if len(res.Output) == 0 {
		t.Fatal("pipeline produced no output after recovery")
	}
}

// TestValidate covers the pipeline shape checks.
func TestValidate(t *testing.T) {
	stage := func(name, from string) dag.Stage {
		return dag.Stage{Name: name, From: from, Build: func(int) *mr.Job { return genJob() }}
	}
	cases := []struct {
		name string
		p    dag.Pipeline
		want string
	}{
		{"no name", dag.Pipeline{Stages: []dag.Stage{stage("a", "")}}, "no name"},
		{"no stages", dag.Pipeline{Name: "p"}, "no stages"},
		{"duplicate stage", dag.Pipeline{Name: "p", Stages: []dag.Stage{stage("a", ""), stage("a", "")}}, "duplicate"},
		{"forward edge", dag.Pipeline{Name: "p", Stages: []dag.Stage{stage("a", "b"), stage("b", "")}}, "earlier"},
		{"self edge", dag.Pipeline{Name: "p", Stages: []dag.Stage{stage("a", "a")}}, "earlier"},
		{"bad carry", dag.Pipeline{Name: "p", Stages: []dag.Stage{stage("a", "")}, Carry: "x"}, "carry"},
		{"bad output", dag.Pipeline{Name: "p", Stages: []dag.Stage{stage("a", "")}, Output: "x"}, "output"},
		{"iterate without carry", dag.Pipeline{Name: "p", Stages: []dag.Stage{stage("a", "")}, MaxIters: 3}, "carry"},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an invalid pipeline", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	ok := dag.Pipeline{Name: "p", Stages: []dag.Stage{stage("a", ""), stage("b", "a")}, Carry: "a", Output: "b", MaxIters: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected a well-formed pipeline: %v", err)
	}
}
