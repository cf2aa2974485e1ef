package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/sched"
)

// TestMain lets the test binary serve as its own worker executable:
// subprocess tests spawn it with the cluster env vars set, and
// WorkerMainIfSpawned diverts those copies into RunWorker before any
// test runs.
func TestMain(m *testing.M) {
	WorkerMainIfSpawned()
	os.Exit(m.Run())
}

// testSpec parameterizes the registered test job. Both the test
// process (coordinator) and spawned workers rebuild identical jobs and
// splits from it.
type testSpec struct {
	Splits     int
	Lines      int // per split
	Reducers   int
	MapDelayUs int  // per-record mapper sleep, to stretch map tasks
	Snappy     bool // Snappy map-output codec
	Combine    bool // a combiner under a 1 KiB sort buffer and merge factor 2
	SpillBytes int  // the maps' sort buffer, when set: maps spill several times
}

const testJobName = "cluster-test-wordcount"

func init() {
	RegisterJob(testJobName, buildTestJob)
}

func buildTestJob(spec []byte) (*mr.Job, []mr.Split, error) {
	var s testSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return nil, nil, err
	}
	words := []string{
		"ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen",
		"ibex", "jay", "kite", "lynx", "mole", "newt", "owl", "pug",
	}
	// Deterministic LCG so every process derives identical splits.
	seed := uint64(0x5eed)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	splits := make([]mr.Split, s.Splits)
	for i := range splits {
		recs := make([]mr.Record, s.Lines)
		for l := range recs {
			var b strings.Builder
			for w := 0; w < 8; w++ {
				if w > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(words[next()%uint64(len(words))])
			}
			recs[l] = mr.Record{Value: []byte(b.String())}
		}
		splits[i] = &mr.MemSplit{Recs: recs}
	}
	delay := time.Duration(s.MapDelayUs) * time.Microsecond
	sum := mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
		total := 0
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			total += n
		}
		return out.Emit(key, []byte(strconv.Itoa(total)))
	})
	job := &mr.Job{
		Name: testJobName,
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error {
			if delay > 0 {
				time.Sleep(delay)
			}
			for _, w := range strings.Fields(string(value)) {
				if err := out.Emit([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		}),
		NewReducer:     sum,
		NumReduceTasks: s.Reducers,
		Deterministic:  true,
	}
	if s.Snappy {
		job.Codec = codec.Snappy{}
	}
	if s.SpillBytes > 0 {
		job.SortBufferBytes = s.SpillBytes
	}
	if s.Combine {
		job.NewCombiner = sum
		job.SortBufferBytes = 1 << 10
		job.MergeFactor = 2
	}
	return job, splits, nil
}

func mustSpec(t *testing.T, s testSpec) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// singleProcessRun is the reference: the same registry job executed by
// the in-process engine.
func singleProcessRun(t *testing.T, ref JobRef) *mr.Result {
	t.Helper()
	job, splits, err := BuildJob(ref)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mr.Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameOutput(t *testing.T, got, want *mr.Result) {
	t.Helper()
	g, w := got.SortedOutput(), want.SortedOutput()
	if len(g) != len(w) {
		t.Fatalf("output length %d, want %d", len(g), len(w))
	}
	for i := range g {
		if !bytes.Equal(g[i].Key, w[i].Key) || !bytes.Equal(g[i].Value, w[i].Value) {
			t.Fatalf("record %d: got %s, want %s", i, mr.FormatRecord(g[i]), mr.FormatRecord(w[i]))
		}
	}
}

// runExclusive is the one-shot use of a fleet: wait for n workers, run
// ref as the fleet's only job, release the workers.
func runExclusive(ctx context.Context, f *Fleet, n int, ref JobRef) (*mr.Result, error) {
	if err := f.WaitWorkers(ctx, n); err != nil {
		return nil, err
	}
	h, err := f.Submit(ctx, JobSpec{Ref: ref, Exclusive: true})
	if err != nil {
		return nil, err
	}
	res, err := h.Wait(ctx)
	f.Shutdown()
	return res, err
}

// events wires a fleet's OnEvent to a drop-on-full channel.
func events() (func(Event), <-chan Event) {
	ch := make(chan Event, 4096)
	return func(e Event) {
		select {
		case ch <- e:
		default:
		}
	}, ch
}

// awaitEvent blocks for the first event matching pred.
func awaitEvent(t *testing.T, ch <-chan Event, what string, pred func(Event) bool) Event {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case e := <-ch:
			if pred(e) {
				return e
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClusterMatchesSingleProcess: two in-process workers execute the
// job over real TCP shuffle, across map-output codecs × wire
// compression and a spilling, combining job. Output, shuffle bytes and
// per-partition flows must equal the single-process engine's, the
// measured shuffle must be populated with pooled (dials < fetches)
// transfers, and a compressing wire must move fewer bytes than it
// delivers.
func TestClusterMatchesSingleProcess(t *testing.T) {
	for _, c := range []struct {
		name         string
		snappy, wire bool
		combine      bool
	}{
		{name: "identity/wire=false"},
		{name: "identity/wire=true", wire: true},
		{name: "snappy/wire=false", snappy: true},
		{name: "snappy/wire=true", snappy: true, wire: true},
		{name: "combiner/tiny-sort", combine: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			// 600 lines per split put Snappy-coded segments over the
			// wire's compression floor; the spilling case needs fewer.
			lines := 600
			if c.combine {
				lines = 120
			}
			ref := JobRef{Name: testJobName, Spec: mustSpec(t, testSpec{
				Splits: 8, Lines: lines, Reducers: 4, Snappy: c.snappy, Combine: c.combine,
			})}
			// The wide miss budget keeps a worker busy spilling under the
			// race detector from being declared dead between heartbeats.
			fleet, err := NewFleet(FleetConfig{HeartbeatEvery: 25 * time.Millisecond, HeartbeatMiss: 20})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			workerErr := make(chan error, 2)
			for i := 0; i < 2; i++ {
				go func() {
					workerErr <- RunWorker(ctx, WorkerOptions{Coordinator: fleet.Addr(), Slots: 2, WireCompression: c.wire})
				}()
			}

			res, err := runExclusive(ctx, fleet, 2, ref)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := <-workerErr; err != nil {
					t.Errorf("worker: %v", err)
				}
			}

			single := singleProcessRun(t, ref)
			assertSameOutput(t, res, single)
			if res.Stats.ShuffleBytes != single.Stats.ShuffleBytes {
				t.Errorf("shuffle bytes %d, in-process %d", res.Stats.ShuffleBytes, single.Stats.ShuffleBytes)
			}
			if fmt.Sprint(res.ShufflePerPartition) != fmt.Sprint(single.ShufflePerPartition) {
				t.Errorf("per-partition flows %v, in-process %v", res.ShufflePerPartition, single.ShufflePerPartition)
			}
			raw := res.Stats.Extra[mr.CounterShuffleRawBytes]
			wire := res.Stats.Extra[mr.CounterShuffleWireBytes]
			if raw != res.Stats.ShuffleBytes {
				t.Errorf("%s = %d, want the shuffle's %d bytes", mr.CounterShuffleRawBytes, raw, res.Stats.ShuffleBytes)
			}
			if c.wire && wire >= raw {
				t.Errorf("compressed wire moved %d bytes for %d raw; want fewer", wire, raw)
			}
			if !c.wire && wire != raw {
				t.Errorf("uncompressed wire moved %d bytes for %d raw; want equal", wire, raw)
			}
			if c.combine && (single.Stats.Spills <= 8 || res.Stats.Spills != single.Stats.Spills) {
				t.Errorf("spills: fleet %d, in-process %d; want equal and more than one per map task",
					res.Stats.Spills, single.Stats.Spills)
			}

			m := res.MeasuredShuffle
			if m == nil {
				t.Fatal("cluster run must populate MeasuredShuffle")
			}
			if m.Bytes <= 0 || m.Fetches <= 0 {
				t.Errorf("measured shuffle empty: %+v", m)
			}
			if m.Bytes != res.Stats.ShuffleBytes {
				t.Errorf("measured bytes %d != metered shuffle bytes %d", m.Bytes, res.Stats.ShuffleBytes)
			}
			if m.Dials <= 0 || m.Dials >= int64(m.Fetches) {
				t.Errorf("dials %d vs fetches %d: connection pool should dial fewer times than it fetches", m.Dials, m.Fetches)
			}
			if m.Extent <= 0 || m.FetchTime <= 0 {
				t.Errorf("measured shuffle times empty: %+v", m)
			}
			// The fleet's tasks read and write what the in-process engine's
			// do; on top, the segment servers read exactly the bytes the
			// fetches moved — nothing else a clean Exclusive job's disk
			// lines include.
			if res.Stats.DiskWriteBytes != single.Stats.DiskWriteBytes ||
				res.Stats.DiskReadBytes != single.Stats.DiskReadBytes+m.Bytes {
				t.Errorf("disk read/write %d/%d, want in-process %d/%d plus %d served",
					res.Stats.DiskReadBytes, res.Stats.DiskWriteBytes,
					single.Stats.DiskReadBytes, single.Stats.DiskWriteBytes, m.Bytes)
			}
		})
	}
}

const bigJobName = "cluster-test-bigsort"

// bigSpec sizes the registered sort job: Splits × Records records of
// 10-byte keys and 135-byte values — the shape of the benchmark's
// sort_cluster lines — sorted into Reducers partitions.
type bigSpec struct{ Splits, Records, Reducers int }

func init() {
	RegisterJob(bigJobName, func(raw []byte) (*mr.Job, []mr.Split, error) {
		var s bigSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, nil, err
		}
		job := passJob()
		job.Name = bigJobName
		job.NumReduceTasks = s.Reducers
		splits := make([]mr.Split, s.Splits)
		for i := range splits {
			splits[i] = sortSplit{seed: uint64(i + 1), n: s.Records}
		}
		return job, splits, nil
	})
}

// sortSplit generates its records on demand, so the job's input costs
// no memory in any of the processes that build it.
type sortSplit struct {
	seed uint64
	n    int
}

func (s sortSplit) Records(fn func(k, v []byte) error) error {
	x := s.seed
	next := func() byte {
		x = x*6364136223846793005 + 1442695040888963407
		return byte(x >> 56)
	}
	key, value := make([]byte, 10), make([]byte, 135)
	for i := 0; i < s.n; i++ {
		for j := range key {
			key[j] = next()
		}
		for j := range value {
			value[j] = 'a' + next()%26
		}
		if err := fn(key, value); err != nil {
			return err
		}
	}
	return nil
}

// outputDigest hashes a result's output, partition by partition and in
// order, so two outputs match only if they are byte-identical.
func outputDigest(res *mr.Result) string {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, part := range res.Output {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(part)))])
		for _, r := range part {
			h.Write(n[:binary.PutUvarint(n[:], uint64(len(r.Key)))])
			h.Write(r.Key)
			h.Write(n[:binary.PutUvarint(n[:], uint64(len(r.Value)))])
			h.Write(r.Value)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLargeOutputUnderDefaultLiveness runs the benchmark's
// sort_cluster at -scale 4 — 4 splits × 200 k records sorted into 2
// partitions, ≈ 58 MB of output per reduce — on the benchmark's fleet
// shape, two disk-backed in-process workers of one slot each, with
// every liveness setting at its default. Reduce output leaves a worker
// as a served file, so nothing the job produces rides the control
// plane: every attempt succeeds first time, and the output is
// byte-identical to mr.Run's. (When a reduce report carried its
// records, a report this size could hold a worker's RPC connection past
// the 4 × 50 ms liveness window; the fleet then declared the worker
// dead, re-ran its work, and the job could go on that way forever.)
func TestLargeOutputUnderDefaultLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("sorts ≈ 116 MB twice; skipped in -short mode")
	}
	spec, err := json.Marshal(bigSpec{Splits: 4, Records: 200_000, Reducers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := JobRef{Name: bigJobName, Spec: spec}

	job, splits, err := BuildJob(ref)
	if err != nil {
		t.Fatal(err)
	}
	job.FS = iokit.NewOSFS(t.TempDir())
	want, err := mr.Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	for p, part := range want.Output {
		var n int
		for _, r := range part {
			n += len(r.Key) + len(r.Value)
		}
		if n < 50<<20 {
			t.Fatalf("setup: reduce %d emitted %d bytes, want ≈ 58 MB", p, n)
		}
	}
	wantDigest := outputDigest(want)
	want = nil
	runtime.GC() // the fleet's copy is the only one held from here on

	fleet, err := NewFleet(FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		fs := iokit.NewOSFS(t.TempDir())
		go func() {
			workerErr <- RunWorker(ctx, WorkerOptions{Coordinator: fleet.Addr(), Slots: 1, FS: fs})
		}()
	}
	got, err := runExclusive(ctx, fleet, 2, ref)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
	if d := outputDigest(got); d != wantDigest {
		t.Errorf("fleet output digest %s, mr.Run's %s", d, wantDigest)
	}
	for _, a := range got.Timeline {
		if a.Outcome != sched.OutcomeSuccess {
			t.Errorf("%s attempt %d: %s %s", a.Task, a.Attempt, a.Outcome, a.Err)
		}
	}
}

// TestClusterRejectsUnknownJob: submitting an unregistered job fails
// at Submit instead of hanging workers.
func TestClusterRejectsUnknownJob(t *testing.T) {
	fleet, err := NewFleet(FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if _, err := fleet.Submit(context.Background(), JobSpec{Ref: JobRef{Name: "no-such-job"}}); err == nil {
		t.Fatal("expected unknown-job error")
	}
}

// killableCluster spawns n subprocess workers one at a time, waiting
// for each registration so worker IDs map to processes
// deterministically (ID i ↔ procs[i]).
func killableCluster(t *testing.T, fleet *Fleet, ch <-chan Event, n int) []*Process {
	t.Helper()
	procs := make([]*Process, n)
	for i := 0; i < n; i++ {
		p, err := SpawnSelf(fleet.Addr(), 2)
		if err != nil {
			t.Fatalf("spawning worker: %v", err)
		}
		procs[i] = p
		want := i
		awaitEvent(t, ch, fmt.Sprintf("worker %d registration", i), func(e Event) bool {
			return e.Kind == "register" && e.Worker == want
		})
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Kill() // idempotent enough: already-exited workers just reap
		}
	})
	return procs
}

// TestWorkerKillMidMap kills a worker right after it commits its first
// map task, while map tasks are still running everywhere. The
// fleet must detect the death via missed heartbeats, re-place
// the worker's in-flight leases, re-execute lost map output if any
// fetches still needed it, and deliver byte-identical output.
func TestWorkerKillMidMap(t *testing.T) {
	ref := JobRef{Name: testJobName, Spec: mustSpec(t, testSpec{
		Splits: 12, Lines: 150, Reducers: 4, MapDelayUs: 300,
	})}
	res, _ := killMidMap(t, ref)
	assertSameOutput(t, res, singleProcessRun(t, ref))
}

// TestWorkerKillMidMapMultiSpill is TestWorkerKillMidMap over maps
// whose sort buffer holds a fraction of their output, so each hands the
// reducers several spill runs per partition. The map the killed worker
// committed must run again (its fetches had not all landed), serve
// every one of its runs again, and the fleet's output must equal
// mr.Run's byte for byte, order included.
func TestWorkerKillMidMapMultiSpill(t *testing.T) {
	ref := JobRef{Name: testJobName, Spec: mustSpec(t, testSpec{
		Splits: 12, Lines: 150, Reducers: 4, MapDelayUs: 300, SpillBytes: 8 << 10,
	})}
	res, lost := killMidMap(t, ref)
	local := singleProcessRun(t, ref)
	if local.Stats.Spills < 3*12 {
		t.Fatalf("setup: %d spills over 12 maps, want at least 3 each", local.Stats.Spills)
	}
	runs := 0
	for _, a := range res.Timeline {
		if a.Task == lost && a.Outcome == sched.OutcomeSuccess {
			runs++
		}
	}
	if runs < 2 {
		t.Errorf("%s, committed by the killed worker, succeeded %d times; want a re-execution", lost, runs)
	}
	if got, want := res.Stats.ReduceInputRecords, local.Stats.ReduceInputRecords; got != want {
		t.Errorf("fleet reduces read %d records, mr.Run's %d", got, want)
	}
	if got, want := outputDigest(res), outputDigest(local); got != want {
		t.Errorf("fleet output digest %s, mr.Run's %s", got, want)
	}
}

// killMidMap runs ref on three subprocess workers and kills the one
// that commits the first map task. It returns the fleet's result and
// the name of that map task.
func killMidMap(t *testing.T, ref JobRef) (*mr.Result, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess cluster test; skipped in -short mode")
	}
	onEvent, ch := events()
	fleet, err := NewFleet(FleetConfig{
		HeartbeatEvery: 25 * time.Millisecond,
		OnEvent:        onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	procs := killableCluster(t, fleet, ch, 3)

	done := make(chan struct{})
	var res *mr.Result
	var runErr error
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	go func() {
		res, runErr = runExclusive(ctx, fleet, 3, ref)
		close(done)
	}()

	// Kill the worker that commits the first map task.
	e := awaitEvent(t, ch, "first map commit", func(e Event) bool {
		return e.Kind == "task-done" && strings.HasPrefix(e.Task, "map/")
	})
	if err := procs[e.Worker].Kill(); err != nil {
		t.Fatalf("killing worker %d: %v", e.Worker, err)
	}
	awaitEvent(t, ch, "worker death detection", func(ev Event) bool {
		return ev.Kind == "worker-dead" && ev.Worker == e.Worker
	})

	<-done
	if runErr != nil {
		t.Fatalf("job failed after worker kill: %v", runErr)
	}
	return res, e.Task
}

// TestWorkerKillMidShuffle kills the worker that just localized the
// first fetch — a reduce partition's home. Its fetched segments and
// map outputs die with it; the coordinator must re-home the partition,
// re-execute the lost dependencies (visible as dep-lost attempts in
// the timeline), and still produce byte-identical output.
func TestWorkerKillMidShuffle(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster test; skipped in -short mode")
	}
	ref := JobRef{Name: testJobName, Spec: mustSpec(t, testSpec{
		Splits: 12, Lines: 150, Reducers: 4, MapDelayUs: 300,
	})}
	onEvent, ch := events()
	fleet, err := NewFleet(FleetConfig{
		HeartbeatEvery: 25 * time.Millisecond,
		OnEvent:        onEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	procs := killableCluster(t, fleet, ch, 3)

	done := make(chan struct{})
	var res *mr.Result
	var runErr error
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	go func() {
		res, runErr = runExclusive(ctx, fleet, 3, ref)
		close(done)
	}()

	e := awaitEvent(t, ch, "first fetch commit", func(e Event) bool {
		return e.Kind == "task-done" && strings.HasPrefix(e.Task, "fetch/")
	})
	if err := procs[e.Worker].Kill(); err != nil {
		t.Fatalf("killing worker %d: %v", e.Worker, err)
	}
	awaitEvent(t, ch, "worker death detection", func(ev Event) bool {
		return ev.Kind == "worker-dead" && ev.Worker == e.Worker
	})

	<-done
	if runErr != nil {
		t.Fatalf("job failed after worker kill: %v", runErr)
	}
	assertSameOutput(t, res, singleProcessRun(t, ref))

	// The killed worker held committed fetch output (that's what we
	// waited for), so its partition's reduce — or a later fetch — must
	// have hit the dependency-loss path.
	sawDepLost := false
	for _, a := range res.Timeline {
		if a.Outcome == sched.OutcomeDepLost {
			sawDepLost = true
			break
		}
	}
	if !sawDepLost {
		t.Error("timeline shows no dep-lost attempt; worker kill did not exercise re-execution")
	}
}
