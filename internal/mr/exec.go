package mr

import (
	"context"
	"time"

	"repro/internal/iokit"
)

// SegmentInfo is the exported description of one map-output segment: a
// sorted run of framed records for one reduce partition. The cluster
// runtime ships these between processes (the file lives on the worker
// that produced it and is served by its SegmentServer).
type SegmentInfo struct {
	// Partition is the reduce partition the segment belongs to.
	Partition int
	// File is the segment's name in the producing worker's filesystem.
	File string
	// Records is the framed record count, RawBytes the pre-codec size.
	Records  int64
	RawBytes int64
}

func exportSegments(segs []segment) []SegmentInfo {
	out := make([]SegmentInfo, len(segs))
	for i, s := range segs {
		out[i] = SegmentInfo{Partition: s.partition, File: s.file, Records: s.records, RawBytes: s.rawBytes}
	}
	return out
}

func importSegments(infos []SegmentInfo) []segment {
	out := make([]segment, len(infos))
	for i, s := range infos {
		out[i] = segment{partition: s.Partition, file: s.File, records: s.Records, rawBytes: s.RawBytes}
	}
	return out
}

// ExecMapTask runs one map-task attempt of job against fs: the Mapper
// over split, collect/sort/spill, returning the produced segments. It
// is the task entry point remote executors (internal/cluster workers)
// call with a registry-built job; the single-process engine uses the
// same underlying path. The job is defaulted with normalized, so a
// builder-produced job need not pre-fill optional fields.
func ExecMapTask(ctx context.Context, job *Job, fs iokit.FS, counters *Counters, taskID, attempt int, split Split) ([]SegmentInfo, error) {
	j, err := job.normalized()
	if err != nil {
		return nil, err
	}
	counters.InitPartitions(j.NumReduceTasks)
	segs, err := runMapTask(ctx, j, fs, counters, taskID, attempt, split)
	if err != nil {
		return nil, err
	}
	return exportSegments(segs), nil
}

// ExecReduceTask runs one reduce-task attempt of job over segments that
// are already local in fs (a remote executor fetches them first, as the
// engine's fetch tasks do), merging them in the given
// order and invoking Reduce per key group. Segment order must be the
// map-task order for output to be byte-identical with the
// single-process engine. The task's single-threaded wall time is
// charged as reduce CPU.
func ExecReduceTask(ctx context.Context, job *Job, fs iokit.FS, counters *Counters, partition, attempt int, segs []SegmentInfo) ([]Record, error) {
	j, err := job.normalized()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { counters.reduceTaskNs.Add(time.Since(start).Nanoseconds()) }()
	return reduceMerge(ctx, j, fs, counters, partition, attempt, importSegments(segs))
}
