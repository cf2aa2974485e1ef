package mr

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/iokit"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Scheduler names for Job.Scheduler.
const (
	// SchedulerPipelined is the event-driven scheduler with pipelined
	// shuffle, retries, and optional speculative execution (the default).
	SchedulerPipelined = "pipelined"
	// SchedulerBarrier is the classic two-phase engine: all map tasks,
	// a hard barrier, then all reduce tasks.
	SchedulerBarrier = "barrier"
)

// Task timeline groups, as they appear in Result.Timeline.
const (
	TaskGroupMap    = "map"
	TaskGroupFetch  = "fetch"
	TaskGroupReduce = "reduce"
)

// Result carries a finished job's output and metrics.
type Result struct {
	// Stats is the job's metric snapshot.
	Stats Stats
	// Output holds each reduce partition's emitted records in emission
	// order (empty when the job sets DiscardOutput).
	Output [][]Record
	// ShufflePerPartition holds each reduce partition's fetched bytes
	// (post-codec) — the flow sizes the cost model's network simulation
	// consumes.
	ShufflePerPartition []int64
	// ReduceTaskTimes holds each reduce task's single-threaded duration,
	// for load-skew analysis (§6.2 discusses LazySH-induced reducer
	// skew). Under the pipelined scheduler this is the merge+reduce
	// time; the per-map fetch time is on the Timeline's fetch attempts.
	ReduceTaskTimes []time.Duration
	// MapTaskTimes holds each map task's single-threaded duration
	// (winning attempt), so skew analysis covers both phases.
	MapTaskTimes []time.Duration
	// Timeline is the per-attempt task event log: queued/start/finish
	// timestamps and outcome for every map, fetch, and reduce attempt,
	// including retries and speculative duplicates. Consumers (cost
	// model, experiments) can measure real phase overlap from it
	// instead of assuming phase serialization.
	Timeline []sched.Attempt
	// MeasuredShuffle records the real network transfer when the job ran
	// on the cluster runtime (internal/cluster), nil otherwise. It sits
	// next to ShufflePerPartition — the flow sizes the synthetic netsim
	// prediction consumes — so model-vs-measured comparisons need no
	// side channel.
	MeasuredShuffle *ShuffleMeasurement
}

// ShuffleMeasurement is the real-network counterpart of the netsim
// estimate: bytes and time actually spent moving map output between
// worker processes over TCP.
type ShuffleMeasurement struct {
	// Bytes is the payload moved over worker-to-worker sockets.
	Bytes int64
	// FetchTime is the summed per-fetch transfer time (network busy
	// time, the analogue of netsim's per-flow completion work).
	FetchTime time.Duration
	// Extent is the wall-clock span of the fetch phase: first fetch
	// start to last fetch end, the measured analogue of the netsim
	// makespan.
	Extent time.Duration
	// Fetches counts segment transfers; Dials counts TCP dials (the
	// connection pool's miss count).
	Fetches int
	Dials   int64
}

// runEnv bundles the per-run state shared by both schedulers.
type runEnv struct {
	job       *Job
	fs        iokit.FS // metered view of job.FS
	counters  *Counters
	transport Transport
	splits    []Split
}

// Run executes a MapReduce job over the given input splits and waits
// for completion — the analogue of submitting a job to a Hadoop
// cluster. Job.Scheduler picks the engine: the default pipelined
// scheduler starts each reduce partition's segment fetches as soon as
// the map tasks feeding it complete, with per-task retries and optional
// speculative execution; the barrier scheduler runs all map tasks, then
// all reduce tasks. Both are bounded by Job.Parallelism workers and
// produce byte-identical output.
func Run(job *Job, splits []Split) (*Result, error) {
	j, err := job.normalized()
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		splits = []Split{&MemSplit{}}
	}
	if j.AlignedInput && len(splits) != j.NumReduceTasks {
		return nil, fmt.Errorf("%w: AlignedInput needs exactly NumReduceTasks (%d) splits, got %d",
			errJob, j.NumReduceTasks, len(splits))
	}

	if !j.DisablePooling {
		j.bufs = newRunBuffers(j.Parallelism)
		defer j.bufs.drain()
	}

	start := time.Now()
	meter := &iokit.Meter{}
	fs := iokit.Metered(j.FS, meter)
	counters := &Counters{}
	counters.InitPartitions(j.NumReduceTasks)
	// Wire the disk meter and start time in before any task runs, so a
	// live observer's mid-job Snapshot carries consistent disk and
	// wall-time readings alongside the record counters.
	counters.SetDiskMeter(meter)
	counters.MarkStart(start)
	if j.Metrics != nil {
		// The source is intentionally left registered after the run:
		// its final values keep answering snapshots, so a live
		// reporter's last line agrees with the returned Result.Stats.
		j.Metrics.Register(j.Name, func() map[string]int64 {
			return counters.Snapshot().Labeled()
		})
	}
	jobSpan := j.Tracer.Start(obs.KindJob, j.Name,
		obs.Str("scheduler", j.Scheduler), obs.Int("splits", int64(len(splits))),
		obs.Int("reducers", int64(j.NumReduceTasks)))

	var transport Transport = LocalTransport{}
	if j.TCPShuffle {
		tcp, err := newTCPTransport(fs, j.WrapShuffleListener, j.WireCompression)
		if err != nil {
			return nil, fmt.Errorf("mr: starting shuffle transport: %w", err)
		}
		defer tcp.Close()
		transport = tcp
	}

	env := &runEnv{job: j, fs: fs, counters: counters, transport: transport, splits: splits}
	var res *Result
	switch j.Scheduler {
	case SchedulerBarrier:
		res, err = runBarrier(context.Background(), env)
	default:
		res, err = runPipelined(context.Background(), env)
	}
	if err != nil {
		jobSpan.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
		return nil, err
	}

	// Snapshot reads the wired meter and start time itself, so the
	// final Stats are just the last of the same self-consistent
	// snapshots any mid-job observer saw; MarkEnd freezes the wall
	// clock so later snapshots (a reporter's final line) agree exactly.
	counters.MarkEnd(time.Now())
	res.Stats = counters.Snapshot()
	jobSpan.End(obs.Str("outcome", "success"),
		obs.Int("shuffle_bytes", res.Stats.ShuffleBytes),
		obs.Int("map_output_records", res.Stats.MapOutputRecords))
	return res, nil
}

// runBarrier is the classic two-phase engine: a pool of map tasks, a
// hard barrier, then a pool of reduce tasks. A failed task cancels the
// phase's context so in-flight siblings stop promptly.
func runBarrier(ctx context.Context, env *runEnv) (*Result, error) {
	j := env.job
	nMap := len(env.splits)

	tl := &timelineLog{tracer: j.Tracer}

	// Map phase.
	mapSegs := make([][]segment, nMap)
	mapTimes := make([]time.Duration, nMap)
	err := runPool(ctx, j.Parallelism, nMap, func(ctx context.Context, i int) error {
		done := tl.begin(mapTaskName(i), TaskGroupMap)
		segs, err := runMapTask(ctx, j, env.fs, env.counters, i, 0, env.splits[i])
		mapTimes[i] = done(err)
		mapSegs[i] = segs
		return err
	})
	if err != nil {
		return nil, err
	}

	// Group segments by reduce partition and record shuffle flow sizes
	// before reduce-side merging consumes the files.
	byPart := make([][]segment, j.NumReduceTasks)
	for _, segs := range mapSegs {
		for _, s := range segs {
			byPart[s.partition] = append(byPart[s.partition], s)
		}
	}
	shufflePer := make([]int64, j.NumReduceTasks)
	for p, segs := range byPart {
		for _, s := range segs {
			size, err := j.FS.Size(s.file)
			if err != nil {
				return nil, err
			}
			shufflePer[p] += size
		}
	}

	// Reduce phase.
	output := make([][]Record, j.NumReduceTasks)
	taskTimes := make([]time.Duration, j.NumReduceTasks)
	err = runPool(ctx, j.Parallelism, j.NumReduceTasks, func(ctx context.Context, p int) error {
		done := tl.begin(reduceTaskName(p), TaskGroupReduce)
		recs, err := runReduceTask(ctx, j, env.fs, env.counters, env.transport, p, byPart[p])
		taskTimes[p] = done(err)
		output[p] = recs
		return err
	})
	if err != nil {
		return nil, err
	}

	return &Result{
		Output:              output,
		ShufflePerPartition: shufflePer,
		ReduceTaskTimes:     taskTimes,
		MapTaskTimes:        mapTimes,
		Timeline:            tl.attempts,
	}, nil
}

// timelineLog records per-task attempts for the barrier scheduler so
// both engines expose the same Result.Timeline shape, mirroring each
// attempt into the trace sink when one is configured.
type timelineLog struct {
	tracer   *obs.Tracer
	mu       sync.Mutex
	attempts []sched.Attempt
}

// begin starts timing one task; the returned func finishes the record
// and reports the task duration.
func (t *timelineLog) begin(name, group string) func(err error) time.Duration {
	start := time.Now()
	return func(err error) time.Duration {
		end := time.Now()
		a := sched.Attempt{
			Task: name, Group: group,
			Queued: start, Started: start, Finished: end,
			Outcome: sched.OutcomeSuccess,
		}
		if err != nil {
			a.Outcome = sched.OutcomeFailed
			a.Err = err.Error()
		}
		if t.tracer != nil {
			t.tracer.Record(group, name, start, end, obs.Int("attempt", 0),
				obs.Str("outcome", string(a.Outcome)))
		}
		t.mu.Lock()
		t.attempts = append(t.attempts, a)
		t.mu.Unlock()
		return end.Sub(start)
	}
}

// runPool runs fn(ctx, 0..n-1) with at most workers goroutines,
// returning the first error encountered. The first failure cancels the
// pool's context: queued indices are not dispatched and in-flight tasks
// observe cancellation through the ctx plumbed into them.
func runPool(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain after cancellation
				}
				if err := fn(ctx, i); err != nil {
					fail(err)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// SortedOutput flattens a result's per-partition output into one slice,
// partition by partition, for deterministic assertions in tests.
func (r *Result) SortedOutput() []Record {
	n := 0
	for _, part := range r.Output {
		n += len(part)
	}
	if n == 0 {
		return nil
	}
	out := make([]Record, 0, n)
	for _, part := range r.Output {
		out = append(out, part...)
	}
	return out
}

// FormatRecord renders a record for debugging.
func FormatRecord(r Record) string {
	return fmt.Sprintf("%q=%q", r.Key, r.Value)
}
