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
	// skew): the merge+reduce time; the per-map fetch time is on the
	// Timeline's fetch attempts.
	ReduceTaskTimes []time.Duration
	// MapTaskTimes holds each map task's single-threaded duration
	// (winning attempt), so skew analysis covers both phases.
	MapTaskTimes []time.Duration
	// Timeline is the per-attempt task event log: queued/start/finish
	// timestamps and outcome for every map, fetch, and reduce attempt,
	// including retries and re-executions. Consumers (cost
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

// Run executes a MapReduce job over the given input splits and waits
// for completion — the analogue of submitting a job to a Hadoop
// cluster. The job runs as an event-driven task graph (Plan): each
// reduce partition's segment fetches start as soon as the map tasks
// feeding it complete, with per-task retries, on at most
// Job.Parallelism workers. A reduce reads map output where it lies, in
// the job's FS. Output does not depend on the worker count or on which
// attempt succeeds.
func Run(job *Job, splits []Split) (_ *Result, err error) {
	j, err := job.normalized()
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		splits = []Split{&MemSplit{}}
	}
	plan, err := NewPlan(j, len(splits))
	if err != nil {
		return nil, err
	}

	j.bufs = newRunBuffers(j.Parallelism)
	defer j.bufs.drain()

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
		obs.Int("splits", int64(len(splits))), obs.Int("reducers", int64(j.NumReduceTasks)))
	// Spans are recorded when they end: every failed return below must
	// still leave the job in the trace.
	defer func() {
		if err != nil {
			jobSpan.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
		}
	}()

	res, err := runPipelined(context.Background(), j, fs, counters, plan, splits)
	if err != nil {
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
