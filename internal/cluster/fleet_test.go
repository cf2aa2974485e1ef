package cluster

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/sched"
)

// fleetWorkers starts n in-process workers on tracked filesystems and
// returns their trackers plus a channel carrying each worker's exit
// error.
func fleetWorkers(t *testing.T, ctx context.Context, f *Fleet, n, slots int) ([]*iokit.TrackFS, chan error) {
	t.Helper()
	trackers := make([]*iokit.TrackFS, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		trackers[i] = &iokit.TrackFS{Inner: iokit.NewMemFS()}
		fs := trackers[i]
		go func() {
			errs <- RunWorker(ctx, WorkerOptions{Coordinator: f.Addr(), Slots: slots, FS: fs})
		}()
	}
	if err := f.WaitWorkers(ctx, n); err != nil {
		t.Fatal(err)
	}
	return trackers, errs
}

// TestFleetConcurrentJobsByteIdentical runs nine jobs from three
// tenants concurrently over one three-worker fleet. Every job's output
// must be byte-identical to its own single-process run, and when the
// fleet retires the jobs the workers' shared filesystems must come
// back empty (per-job workspace sweeps) with zero leaked handles.
func TestFleetConcurrentJobsByteIdentical(t *testing.T) {
	// Generous miss tolerance: under -race, nine concurrent jobs can
	// stall a heartbeat goroutine past the production default, and a
	// spuriously dead worker (correctly) never gets cleanup announcements.
	f, err := NewFleet(FleetConfig{HeartbeatEvery: 50 * time.Millisecond, HeartbeatMiss: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	trackers, workerErr := fleetWorkers(t, ctx, f, 3, 2)

	tenants := []string{"analytics", "adhoc", "batch"}
	const nJobs = 9
	refs := make([]JobRef, nJobs)
	handles := make([]*JobHandle, nJobs)
	for i := range refs {
		// Distinct specs so jobs cannot accidentally share output.
		refs[i] = JobRef{Name: testJobName, Spec: mustSpec(t, testSpec{
			Splits: 4, Lines: 60 + 10*i, Reducers: 3,
		})}
		h, err := f.Submit(ctx, JobSpec{
			Ref:    refs[i],
			Tenant: tenants[i%len(tenants)],
			Weight: 1 + i%2,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d failed: %v", i, err)
		}
		assertSameOutput(t, res, singleProcessRun(t, refs[i]))
		p := h.Progress()
		if p.TasksDone != p.TasksTotal || p.TasksTotal == 0 {
			t.Errorf("job %d progress %d/%d, want complete", i, p.TasksDone, p.TasksTotal)
		}
	}

	// Cleanup announcements ride heartbeats; poll until every worker's
	// filesystem is swept empty.
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
				t.Fatalf("worker %d still holds %d files after job cleanup: %v", i, len(files), files[:min(len(files), 5)])
			}
			time.Sleep(20 * time.Millisecond)
		}
		if n := tr.OpenHandles(); n != 0 {
			t.Errorf("worker %d leaked %d file handles", i, n)
		}
	}

	f.Shutdown()
	for i := 0; i < 3; i++ {
		if err := <-workerErr; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestExclusiveJobBeforeWorkersUsesEverySlot: the fleet's slots are a
// job's only concurrency bound, also for an Exclusive job submitted
// before any worker registered — such a job once kept the one-slot
// width of the empty fleet it was submitted to for its whole run.
func TestExclusiveJobBeforeWorkersUsesEverySlot(t *testing.T) {
	f, err := NewFleet(FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ref := JobRef{Name: testJobName, Spec: mustSpec(t, testSpec{Splits: 4, Lines: 20, Reducers: 2, MapDelayUs: 5000})}
	h, err := f.Submit(ctx, JobSpec{Ref: ref, Exclusive: true})
	if err != nil {
		t.Fatal(err)
	}
	_, workerErr := fleetWorkers(t, ctx, f, 2, 2)
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var maps []sched.Attempt
	for _, a := range res.Timeline {
		if a.Group == mr.TaskGroupMap && a.Outcome == sched.OutcomeSuccess {
			maps = append(maps, a)
		}
	}
	overlapped := false
	for i, a := range maps {
		for _, b := range maps[i+1:] {
			overlapped = overlapped || (a.Started.Before(b.Finished) && b.Started.Before(a.Finished))
		}
	}
	if !overlapped {
		t.Errorf("no two of %d map attempts overlapped on 2 workers x 2 slots", len(maps))
	}
	f.Shutdown()
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestFleetFairShare exercises the dispatch comparator directly: the
// tenant with the smaller weighted share of running leases wins, ties
// fall to priority then FIFO order.
func TestFleetFairShare(t *testing.T) {
	f := &Fleet{running: map[string]int{"a": 4, "b": 1}}
	mk := func(tenant string, weight, prio int, seq int64) *queuedLease {
		return &queuedLease{
			job: &jobRun{spec: JobSpec{Tenant: tenant, Priority: prio, Weight: weight}},
			seq: seq,
		}
	}
	if !f.betterLocked(mk("b", 1, 0, 9), mk("a", 1, 0, 1)) {
		t.Error("tenant b (1 running) should beat tenant a (4 running)")
	}
	// Weight 4 tenant a: share 4/4 = 1 = b's 1/1; tie falls to FIFO.
	if !f.betterLocked(mk("a", 4, 0, 1), mk("b", 1, 0, 2)) {
		t.Error("equal weighted shares should fall through to FIFO")
	}
	if !f.betterLocked(mk("a", 4, 5, 9), mk("b", 1, 0, 1)) {
		t.Error("equal shares: higher priority should win over FIFO")
	}
	// Weight scales share: a at 4 running with weight 8 has share 1/2,
	// beating b at 1 running weight 1 (share 1).
	if !f.betterLocked(mk("a", 8, 0, 9), mk("b", 1, 0, 1)) {
		t.Error("weight should scale the running-lease share")
	}
}

// TestFleetDrainMidStream drains a worker while jobs are mid-stream:
// every job must still succeed with byte-identical output (zero job
// failures), and the drained worker must deregister and exit nil.
func TestFleetDrainMidStream(t *testing.T) {
	onEvent, ch := events()
	f, err := NewFleet(FleetConfig{HeartbeatEvery: 50 * time.Millisecond, HeartbeatMiss: 40, OnEvent: onEvent})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, workerErr := fleetWorkers(t, ctx, f, 3, 2)

	refs := make([]JobRef, 4)
	handles := make([]*JobHandle, len(refs))
	for i := range refs {
		refs[i] = JobRef{Name: testJobName, Spec: mustSpec(t, testSpec{
			Splits: 8, Lines: 100 + 10*i, Reducers: 3, MapDelayUs: 200,
		})}
		h, err := f.Submit(ctx, JobSpec{Ref: refs[i], Tenant: fmt.Sprintf("t%d", i%2)})
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	// Drain the worker that commits the first map task — it holds
	// committed output other jobs' fetches still need.
	e := awaitEvent(t, ch, "first map commit", func(e Event) bool {
		return e.Kind == "task-done" && e.Task != "" && e.Detail == "" && e.Attempt >= 0 &&
			len(e.Task) > 4 && e.Task[:4] == "map/"
	})
	if !f.DrainWorker(e.Worker) {
		t.Fatalf("draining worker %d failed", e.Worker)
	}
	awaitEvent(t, ch, "worker drained", func(ev Event) bool {
		return ev.Kind == "worker-drained" && ev.Worker == e.Worker
	})

	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d failed after drain: %v", i, err)
		}
		assertSameOutput(t, res, singleProcessRun(t, refs[i]))
	}

	f.Shutdown()
	for i := 0; i < 3; i++ {
		if err := <-workerErr; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestReportCarriesNoRecords: a report names the files a task wrote and
// never carries their records, whatever field they might hide in.
func TestReportCarriesNoRecords(t *testing.T) {
	record := reflect.TypeOf(mr.Record{})
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if typ == record {
			t.Errorf("ReportArgs carries records at %s", path)
			return
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Map:
			walk(typ.Key(), path+"{key}")
			walk(typ.Elem(), path+"{}")
		case reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("ReportArgs field %s has kind %s, which could carry anything", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(ReportArgs{}), "ReportArgs")
}

const passJobName = "cluster-test-passthrough"

func init() {
	RegisterJob(passJobName, func([]byte) (*mr.Job, []mr.Split, error) { return passJob(), nil, nil })
}

// passJob hands every record through map, shuffle and reduce unchanged,
// over two partitions; it runs as a stage job (inputs on the spec).
func passJob() *mr.Job {
	return &mr.Job{
		Name:      passJobName,
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error { return out.Emit(key, value) }),
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

// flipOnce wraps data-plane listeners so that, once armed, exactly one
// large payload write across all their connections has one bit flipped
// — small writes (the wire protocol's headers) stay intact, so the
// corruption lands in file payload, which only a checksum can catch.
type flipOnce struct {
	armed, spent atomic.Bool
}

func (f *flipOnce) wrap(ln net.Listener) net.Listener { return &flipListener{Listener: ln, f: f} }

type flipListener struct {
	net.Listener
	f *flipOnce
}

func (l *flipListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &flipConn{Conn: conn, f: l.f}, nil
}

type flipConn struct {
	net.Conn
	f *flipOnce
}

func (c *flipConn) Write(p []byte) (int, error) {
	if len(p) >= 1024 && c.f.armed.Load() && c.f.spent.CompareAndSwap(false, true) {
		tampered := append([]byte(nil), p...)
		tampered[len(tampered)/2] ^= 0x01
		return c.Conn.Write(tampered)
	}
	return c.Conn.Write(p)
}

// TestHandoffBitFlipIsCaughtAndRetried: a pipeline handoff pulled from
// another worker crosses the data plane under the same CRC framing as a
// shuffle segment. One flipped bit in that transfer fails the map
// attempt with an integrity error — it never reaches the mapper — and
// the retried attempt pulls a clean copy, so the stage's output is
// byte-identical to the in-process run. The same holds for the fleet's
// pull of a reduce's output.
func TestHandoffBitFlipIsCaughtAndRetried(t *testing.T) {
	inputs := make([][]mr.Record, 2)
	for i := range inputs {
		for r := 0; r < 200; r++ {
			inputs[i] = append(inputs[i], mr.Record{
				Key:   []byte(fmt.Sprintf("key-%d-%04d", i, r)),
				Value: []byte(fmt.Sprintf("value %04d of input %d, long enough to fill a handoff", r, i)),
			})
		}
	}
	// Reference: the same two stages on the in-process engine.
	stage1, err := mr.Run(passJob(), []mr.Split{&mr.MemSplit{Recs: inputs[0]}, &mr.MemSplit{Recs: inputs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mr.Run(passJob(), []mr.Split{&mr.MemSplit{Recs: stage1.Output[0]}, &mr.MemSplit{Recs: stage1.Output[1]}})
	if err != nil {
		t.Fatal(err)
	}

	flip := &flipOnce{}
	// armAfterFetches counts down the fetch commits after which the flip
	// arms itself: the reduce-output case below wants the corruption on
	// a pull, after every shuffle transfer is done.
	var armAfterFetches atomic.Int64
	onEvent, ch := events()
	f, err := NewFleet(FleetConfig{HeartbeatEvery: 50 * time.Millisecond, HeartbeatMiss: 40, OnEvent: func(e Event) {
		if e.Kind == "task-done" && strings.HasPrefix(e.Task, "fetch/") && armAfterFetches.Add(-1) == 0 {
			flip.armed.Store(true)
		}
		onEvent(e)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			workerErr <- RunWorker(ctx, WorkerOptions{Coordinator: f.Addr(), Slots: 2, WrapListener: flip.wrap})
		}()
	}
	if err := f.WaitWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}

	// Stage 1 keeps its output on the workers as handoff files.
	ref := JobRef{Name: passJobName}
	h1, err := f.Submit(ctx, JobSpec{
		Ref: ref, KeepOutput: true,
		Inputs: []StageInput{{Records: inputs[0]}, {Records: inputs[1]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	handoffs := h1.Handoffs()
	if len(handoffs) != 2 {
		t.Fatalf("stage 1 kept %d handoffs, want 2", len(handoffs))
	}

	// Stage 2 reads them — each map lease sent to the worker that does
	// NOT hold its handoff, so both are pulled over the data plane, and
	// the first pull is corrupted in flight.
	flip.armed.Store(true)
	stage2 := JobSpec{Ref: ref, Exclusive: true, MaxTaskAttempts: 4, Inputs: make([]StageInput, 2)}
	for p, hd := range handoffs {
		seg := hd.Seg
		stage2.Inputs[p] = StageInput{Handoff: &seg, Worker: 1 - hd.Worker}
	}
	h2, err := f.Submit(ctx, stage2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.Wait(ctx)
	if err != nil {
		t.Fatalf("stage 2 did not survive one corrupted handoff transfer: %v", err)
	}
	assertSameOutput(t, got, want)

	if !flip.spent.Load() {
		t.Fatal("no handoff transfer was corrupted; the test exercised nothing")
	}
	failed := awaitEvent(t, ch, "the corrupted map attempt's failure", func(e Event) bool {
		return e.Kind == "task-failed" && e.Job == h2.ID() && strings.HasPrefix(e.Task, "map/")
	})
	if !strings.Contains(failed.Detail, mr.ErrIntegrity.Error()) {
		t.Errorf("map attempt failed with %q, want an integrity violation", failed.Detail)
	}
	if n := got.Stats.Extra[mr.CounterFetchIntegrity]; n != 1 {
		t.Errorf("%s = %d, want 1", mr.CounterFetchIntegrity, n)
	}

	// Reduce output crosses the same data plane: a job's reduces report
	// a record file, and the fleet pulls it before committing. A bit
	// flipped in a pull fails that reduce attempt with an integrity
	// error, the retried attempt is pulled clean, and the output is the
	// in-process run's.
	flip.armed.Store(false)
	flip.spent.Store(false)
	armAfterFetches.Store(4) // 2 maps × 2 partitions, every pair non-empty
	h3, err := f.Submit(ctx, JobSpec{Ref: ref, Exclusive: true, MaxTaskAttempts: 4,
		Inputs: []StageInput{{Records: inputs[0]}, {Records: inputs[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	got, err = h3.Wait(ctx)
	if err != nil {
		t.Fatalf("job did not survive one corrupted reduce-output pull: %v", err)
	}
	assertSameOutput(t, got, stage1)
	if !flip.spent.Load() {
		t.Fatal("no reduce-output pull was corrupted; the case exercised nothing")
	}
	failed = awaitEvent(t, ch, "the corrupted reduce attempt's failure", func(e Event) bool {
		return e.Kind == "task-failed" && e.Job == h3.ID()
	})
	if !strings.HasPrefix(failed.Task, "reduce/") || !strings.Contains(failed.Detail, mr.ErrIntegrity.Error()) {
		t.Errorf("%s failed with %q, want a reduce failing on an integrity violation", failed.Task, failed.Detail)
	}

	f.ReleaseWorkspace(h1.ID())
	f.Shutdown()
	for i := 0; i < 2; i++ {
		if err := <-workerErr; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}
