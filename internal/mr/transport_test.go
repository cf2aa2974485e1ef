package mr

import (
	"context"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iokit"
	"repro/internal/sched"
)

// runOverWire runs job the way a fleet worker runs its tasks, in one
// process: the plan's tasks on the scheduler, each map task through
// ExecMapTask, each fetch task through ExecFetchTask pulling its map's
// segments with ConnPool.Fetch from a SegmentServer over the job's
// filesystem (with Snappy wire compression when compress is set), and
// each reduce task through ExecReduceTask over the fetched copies.
func runOverWire(job *Job, splits []Split, compress bool) (*Result, error) {
	j, err := job.normalized()
	if err != nil {
		return nil, err
	}
	plan, err := NewPlan(j, len(splits))
	if err != nil {
		return nil, err
	}
	meter := &iokit.Meter{}
	fs := iokit.Metered(j.FS, meter)
	counters := &Counters{}
	counters.InitPartitions(j.NumReduceTasks)
	counters.SetDiskMeter(meter)
	counters.MarkStart(time.Now())

	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	pool := NewConnPool()
	pool.WireCompression = compress
	defer pool.Close()
	fetch := func(ctx context.Context, src SegmentInfo) (io.ReadCloser, int64, error) {
		return pool.Fetch(ctx, srv.Addr(), src.File)
	}

	shufflePer := make([]int64, plan.Reduces)
	tasks := plan.Tasks()
	for t := range tasks {
		task := &tasks[t]
		id, _ := plan.Lookup(task.Name)
		i, p := id.Map, id.Partition
		switch id.Group {
		case TaskGroupMap:
			task.Run = func(ctx context.Context, tc *sched.TaskContext) (any, error) {
				return ExecMapTask(ctx, j, fs, counters, i, tc.Attempt, splits[i])
			}
		case TaskGroupFetch:
			task.Run = func(ctx context.Context, tc *sched.TaskContext) (any, error) {
				var sources []SegmentInfo
				for _, s := range tc.Dep(MapTaskName(i)).([]SegmentInfo) {
					if s.Partition == p {
						sources = append(sources, s)
					}
				}
				got, err := ExecFetchTask(ctx, j, fs, counters, p, i, tc.Attempt, sources, fetch)
				if err != nil {
					return nil, err
				}
				atomic.AddInt64(&shufflePer[p], got.Bytes)
				return got.Segs, nil
			}
		case TaskGroupReduce:
			fetches := task.Deps
			task.Run = func(ctx context.Context, tc *sched.TaskContext) (any, error) {
				var segs []SegmentInfo
				for _, dep := range fetches {
					segs = append(segs, tc.Dep(dep).([]SegmentInfo)...)
				}
				return ExecReduceTask(ctx, j, fs, counters, p, tc.Attempt, segs)
			}
		}
	}
	cfg := sched.Config{Workers: j.Parallelism, MaxAttempts: j.MaxTaskAttempts}
	if j.MaxTaskAttempts > 1 {
		cfg.Retryable = isTransientErr
	}
	report, err := sched.Run(context.Background(), tasks, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Output:              make([][]Record, plan.Reduces),
		ShufflePerPartition: shufflePer,
		Timeline:            report.Attempts,
	}
	for p := range res.Output {
		res.Output[p] = report.Value(ReduceTaskName(p)).([]Record)
	}
	counters.MarkEnd(time.Now())
	res.Stats = counters.Snapshot()
	return res, nil
}

// loopback serves fs on a loopback SegmentServer and returns it with a
// fresh pool; both close when the test ends.
func loopback(t *testing.T, fs iokit.FS) (*SegmentServer, *ConnPool) {
	t.Helper()
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pool := NewConnPool()
	t.Cleanup(func() { pool.Close() })
	return srv, pool
}

func TestTCPTransportFetch(t *testing.T) {
	fs := iokit.NewMemFS()
	w, _ := fs.Create("seg1")
	payload := strings.Repeat("segment data ", 1000)
	w.Write([]byte(payload))
	w.Close()

	srv, pool := loopback(t, fs)
	if srv.Addr() == "" {
		t.Error("Addr should be set")
	}

	rc, size, err := pool.Fetch(context.Background(), srv.Addr(), "seg1")
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(payload)) {
		t.Errorf("size = %d, want %d", size, len(payload))
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if string(got) != payload {
		t.Error("payload mismatch over TCP")
	}
}

func TestTCPTransportMissingFile(t *testing.T) {
	srv, pool := loopback(t, iokit.NewMemFS())
	if _, _, err := pool.Fetch(context.Background(), srv.Addr(), "nope"); err == nil {
		t.Error("missing file should produce a fetch error")
	}
}

func TestTCPTransportConcurrentFetches(t *testing.T) {
	fs := iokit.NewMemFS()
	for _, name := range []string{"a", "b", "c", "d"} {
		w, _ := fs.Create(name)
		w.Write([]byte(strings.Repeat(name, 5000)))
		w.Close()
	}
	srv, pool := loopback(t, fs)
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		name := string(rune('a' + i%4))
		go func() {
			rc, size, err := pool.Fetch(context.Background(), srv.Addr(), name)
			if err != nil {
				errs <- err
				return
			}
			data, err := io.ReadAll(rc)
			rc.Close()
			if err == nil && int64(len(data)) != size {
				err = io.ErrUnexpectedEOF
			}
			errs <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent fetch: %v", err)
		}
	}
}

// TestConnPoolReusesConnections: sequential fetches to one server reuse
// a single pooled connection — the dial count stays at 1 even though
// many fetches (and one server-reported error, which also returns the
// connection at a clean frame boundary) pass through.
func TestConnPoolReusesConnections(t *testing.T) {
	fs := iokit.NewMemFS()
	w, _ := fs.Create("seg")
	w.Write([]byte(strings.Repeat("pooled ", 2000)))
	w.Close()
	srv, pool := loopback(t, fs)

	for i := 0; i < 10; i++ {
		rc, _, err := pool.Fetch(context.Background(), srv.Addr(), "seg")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, rc)
		rc.Close()
		if _, _, err := pool.Fetch(context.Background(), srv.Addr(), "missing"); err == nil {
			t.Fatal("expected error for missing segment")
		}
	}
	if d := pool.Dials(); d != 1 {
		t.Errorf("10 fetches + 10 error round-trips dialed %d times, want 1", d)
	}
}

// TestConnPoolIdleTimeout: a connection idle past the timeout is
// discarded, so the next fetch dials fresh.
func TestConnPoolIdleTimeout(t *testing.T) {
	fs := iokit.NewMemFS()
	w, _ := fs.Create("seg")
	w.Write([]byte("x"))
	w.Close()
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewConnPool()
	pool.idleTimeout = 10 * time.Millisecond
	defer pool.Close()

	fetch := func() {
		rc, _, err := pool.Fetch(context.Background(), srv.Addr(), "seg")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, rc)
		rc.Close()
	}
	fetch()
	fetch() // immediate reuse
	if d := pool.Dials(); d != 1 {
		t.Fatalf("back-to-back fetches dialed %d times, want 1", d)
	}
	time.Sleep(30 * time.Millisecond)
	fetch() // idle connection expired
	if d := pool.Dials(); d != 2 {
		t.Errorf("post-idle fetch dialed %d times total, want 2", d)
	}
}

// TestFetchCancelledMidTransfer: cancelling the fetch context aborts a
// transfer in flight — the reader's next Read fails with the context's
// error instead of delivering the rest of the body.
func TestFetchCancelledMidTransfer(t *testing.T) {
	fs := iokit.NewMemFS()
	w, _ := fs.Create("big")
	w.Write(make([]byte, 4<<20))
	w.Close()
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewConnPool()
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	rc, size, err := pool.Fetch(ctx, srv.Addr(), "big")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if size != 4<<20 {
		t.Fatalf("size = %d", size)
	}
	buf := make([]byte, 4096)
	if _, err := io.ReadFull(rc, buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	cancel()
	// The connection is closed asynchronously by AfterFunc; the read loop
	// must observe the cancellation promptly rather than draining 4 MiB.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := rc.Read(buf)
		if err != nil {
			if err != context.Canceled {
				t.Errorf("read error = %v, want context.Canceled", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reads kept succeeding after cancellation")
		}
	}
}

func TestTCPTransportDoubleClose(t *testing.T) {
	srv, err := NewSegmentServer(iokit.NewMemFS(), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewConnPool()
	for i := 0; i < 2; i++ {
		if err := pool.Close(); err != nil {
			t.Errorf("pool close %d: %v", i, err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("server close %d: %v", i, err)
		}
	}
}

// TestJobOverTCPShuffle: a job whose fetch tasks copy segments over the
// wire produces the in-process engine's output and shuffle accounting.
func TestJobOverTCPShuffle(t *testing.T) {
	input := lines(strings.Repeat("network shuffle words ", 500))
	local, err := Run(wordCountJob(true), input)
	if err != nil {
		t.Fatal(err)
	}
	networked, err := runOverWire(wordCountJob(true), input, false)
	if err != nil {
		t.Fatal(err)
	}
	got, want := outputMap(t, networked), outputMap(t, local)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q: tcp %q, local %q", k, got[k], v)
		}
	}
	// The fetch phase copies segments to reducer-local files, so the
	// TCP run writes strictly more to disk (Hadoop-like behavior).
	if networked.Stats.DiskWriteBytes <= local.Stats.DiskWriteBytes {
		t.Errorf("tcp disk writes %d should exceed local %d",
			networked.Stats.DiskWriteBytes, local.Stats.DiskWriteBytes)
	}
	if networked.Stats.ShuffleBytes != local.Stats.ShuffleBytes {
		t.Errorf("shuffle accounting differs: %d vs %d",
			networked.Stats.ShuffleBytes, local.Stats.ShuffleBytes)
	}
}

// TestJobShuffleDialsPooled: a multi-reduce shuffle — R concurrent
// reducers each fetching M map segments from one server — must keep the
// dial count well below the fetch count: each reducer's sequential
// fetches share one pooled connection instead of dialing per segment.
func TestJobShuffleDialsPooled(t *testing.T) {
	const nMap, nRed = 4, 8
	fs := iokit.NewMemFS()
	for m := 0; m < nMap; m++ {
		for p := 0; p < nRed; p++ {
			w, _ := fs.Create(segName(m, p))
			w.Write([]byte(strings.Repeat("x", 8<<10)))
			w.Close()
		}
	}
	srv, pool := loopback(t, fs)

	errs := make(chan error, nRed)
	for p := 0; p < nRed; p++ {
		p := p
		go func() {
			for m := 0; m < nMap; m++ {
				rc, _, err := pool.Fetch(context.Background(), srv.Addr(), segName(m, p))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, rc)
				rc.Close()
			}
			errs <- nil
		}()
	}
	for p := 0; p < nRed; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	fetches := int64(nMap * nRed)
	if d := pool.Dials(); d >= fetches {
		t.Errorf("%d fetches took %d dials; pooling should dial fewer times than fetches", fetches, d)
	} else {
		t.Logf("%d fetches over %d dials", fetches, d)
	}
}

func segName(m, p int) string {
	return "job/m" + string(rune('0'+m)) + "/out.p" + string(rune('0'+p))
}

// BenchmarkShuffleFetchPooled measures pooled vs unpooled dial counts
// on a repeated multi-segment fetch: the pooled path reports dials/op
// as a metric, demonstrating the satellite's "fewer dials" claim.
func BenchmarkShuffleFetchPooled(b *testing.B) {
	fs := iokit.NewMemFS()
	var names []string
	for i := 0; i < 16; i++ {
		name := "seg" + string(rune('a'+i))
		w, _ := fs.Create(name)
		w.Write(make([]byte, 32<<10))
		w.Close()
		names = append(names, name)
	}
	run := func(b *testing.B, pooled bool) {
		srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		pool := NewConnPool()
		defer pool.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !pooled {
				pool.Close()
				pool = NewConnPool()
			}
			for _, n := range names {
				rc, _, err := pool.Fetch(context.Background(), srv.Addr(), n)
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, rc)
				rc.Close()
			}
		}
		b.ReportMetric(float64(pool.Dials())/float64(b.N), "dials/op")
	}
	b.Run("pooled", func(b *testing.B) { run(b, true) })
	b.Run("fresh-dials", func(b *testing.B) { run(b, false) })
}

// droppingListener wraps a real listener and proxies connections to a
// backend server, but slams the door on the first N accepted
// connections — modelling a shuffle server whose accept queue hiccups.
type droppingListener struct {
	front   net.Listener
	backend string
	drop    int32
}

func (d *droppingListener) run() {
	for {
		conn, err := d.front.Accept()
		if err != nil {
			return
		}
		if atomic.AddInt32(&d.drop, -1) >= 0 {
			conn.Close() // dropped before any response header
			continue
		}
		go func() {
			defer conn.Close()
			back, err := net.Dial("tcp", d.backend)
			if err != nil {
				return
			}
			defer back.Close()
			// Propagate EOF in both directions so neither endpoint is left
			// blocked on a half-open relay.
			go func() {
				io.Copy(back, conn)
				back.Close()
			}()
			io.Copy(conn, back)
		}()
	}
}

// TestTCPFetchRetriesDroppedConnection: a connection dropped before the
// response header is a retryable fetch failure; the bounded retry in
// ConnPool.Fetch recovers without surfacing an error.
func TestTCPFetchRetriesDroppedConnection(t *testing.T) {
	fs := iokit.NewMemFS()
	payload := strings.Repeat("retryable segment ", 500)
	w, _ := fs.Create("seg")
	w.Write([]byte(payload))
	w.Close()

	backend, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()

	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	dl := &droppingListener{front: front, backend: backend.Addr(), drop: 1}
	go dl.run()

	pool := NewConnPool()
	defer pool.Close()
	rc, size, err := pool.Fetch(context.Background(), front.Addr().String(), "seg")
	if err != nil {
		t.Fatalf("fetch should survive one dropped connection: %v", err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(got) != payload || size != int64(len(payload)) {
		t.Fatalf("payload mismatch after retry: size=%d err=%v", size, err)
	}

	// Drop more connections than the retry budget: the error must name
	// the exhausted attempts. (Drain the pooled connection first so every
	// attempt really dials the dropping front door.)
	pool.Close()
	pool = NewConnPool()
	defer pool.Close()
	atomic.StoreInt32(&dl.drop, fetchAttempts)
	if _, _, err := pool.Fetch(context.Background(), front.Addr().String(), "seg"); err == nil || !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("fetch beyond retry budget: err = %v", err)
	}
}
