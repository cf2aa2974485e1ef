package mr

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/iokit"
	"repro/internal/sched"
)

// runPipelined executes the job's Plan on the in-process scheduler: it
// attaches ExecMapTask, ExecFetchTask or ExecReduceTask to each of the
// plan's tasks and runs them on at most Job.Parallelism workers. Task
// failures retry with backoff when transient and the job's attempt
// budget allows. Fetch tasks leave map output where it lies in fs and
// only meter it.
func runPipelined(ctx context.Context, j *Job, fs iokit.FS, counters *Counters, plan Plan, splits []Split) (*Result, error) {
	// shufflePer is written concurrently by a partition's fetch tasks.
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
				got, err := ExecFetchTask(ctx, j, fs, counters, p, i, tc.Attempt, sources, nil)
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

	cfg := sched.Config{
		Workers:     j.Parallelism,
		MaxAttempts: j.MaxTaskAttempts,
		Tracer:      j.Tracer,
	}
	if j.MaxTaskAttempts > 1 {
		cfg.Retryable = isTransientErr
	}
	report, err := sched.Run(ctx, tasks, cfg)
	if err != nil {
		return nil, err
	}

	mapTimes := make([]time.Duration, plan.Maps)
	for i := range mapTimes {
		mapTimes[i] = report.TaskDuration(MapTaskName(i))
	}
	output := make([][]Record, plan.Reduces)
	reduceTimes := make([]time.Duration, plan.Reduces)
	for p := range output {
		output[p] = report.Value(ReduceTaskName(p)).([]Record)
		reduceTimes[p] = report.TaskDuration(ReduceTaskName(p))
	}
	return &Result{
		Output:              output,
		ShufflePerPartition: shufflePer, // every writer finished inside sched.Run
		ReduceTaskTimes:     reduceTimes,
		MapTaskTimes:        mapTimes,
		Timeline:            report.Attempts,
	}, nil
}
