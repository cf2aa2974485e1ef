package mr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/iokit"
	"repro/internal/obs"
)

// SegmentInfo describes one sorted run of framed records for one reduce
// partition, stored as a (possibly compressed) CRC-framed file. It is
// the engine's own segment descriptor and what the cluster runtime
// ships between processes: the file lives in the filesystem of the
// worker that wrote it and is served by that worker's SegmentServer.
type SegmentInfo struct {
	// Addr is the segment-server address of the worker holding the file;
	// empty inside one process, where every file is local.
	Addr string
	// Partition is the reduce partition the segment belongs to.
	Partition int
	// File is the segment's name in the holding worker's filesystem.
	File string
	// Records is the framed record count, RawBytes the pre-codec size.
	Records  int64
	RawBytes int64
}

// FetchFunc opens one source segment's body for a fetch task and
// reports its transfer size: on a fleet, a pooled fetch from src.Addr.
type FetchFunc func(ctx context.Context, src SegmentInfo) (io.ReadCloser, int64, error)

// Fetched is what a fetch task commits: the partition's segments from
// one map task as the reduce will read them, the bytes that moved
// (post-codec), and the time spent moving them.
type Fetched struct {
	Segs  []SegmentInfo
	Bytes int64
	Time  time.Duration
}

// FetchError is a fetch attempt's failure, naming the source it failed
// on (a fleet counts it against Source.Addr). The cause keeps its
// class: ErrIntegrity for a corrupt or truncated body, a connection
// error for an unreachable peer.
type FetchError struct {
	Source SegmentInfo
	Err    error
}

func (e *FetchError) Error() string {
	if e.Source.Addr == "" {
		return fmt.Sprintf("mr: fetching %s: %v", e.Source.File, e.Err)
	}
	return fmt.Sprintf("mr: fetching %s from %s: %v", e.Source.File, e.Source.Addr, e.Err)
}

func (e *FetchError) Unwrap() error { return e.Err }

// ExecFetchTask runs one attempt of fetch/partition/mapTask: it makes
// sources — the segments map task mapTask produced for partition —
// readable in fs and meters them as shuffle flow (bytes post-codec,
// framed records). With a fetch function each source is copied through
// CopySegment, CRC-verified in flight, to an attempt-scoped name under
// the job's workspace; a failed attempt removes every file it wrote
// and returns a *FetchError. With a nil fetch the sources are already
// in fs — the in-process engine — and stay where they are. The
// attempt's wall time is charged as reduce CPU.
func ExecFetchTask(ctx context.Context, job *Job, fs iokit.FS, counters *Counters, partition, mapTask, attempt int, sources []SegmentInfo, fetch FetchFunc) (out Fetched, err error) {
	j, err := job.normalized()
	if err != nil {
		return Fetched{}, err
	}
	start := time.Now()
	defer func() { counters.reduceTaskNs.Add(time.Since(start).Nanoseconds()) }()
	if fetch == nil {
		for _, s := range sources {
			size, err := fs.Size(s.File)
			if err != nil {
				return Fetched{}, err
			}
			counters.AddShuffle(size, s.Records)
			out.Bytes += size
		}
		out.Segs = sources
		return out, nil
	}
	defer func() {
		if err != nil {
			for _, s := range out.Segs {
				removeQuiet(fs, s.File)
			}
			out = Fetched{}
		}
	}()
	for i, src := range sources {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("mr: fetch task %d/%d: %w", partition, mapTask, err)
		}
		// The transport-level sub-span: one socket copy per segment,
		// nested (time-wise) inside the scheduler's fetch-task span.
		t0 := time.Now()
		span := j.Tracer.Start(obs.KindFetch, "copy "+src.File,
			obs.Int("partition", int64(partition)))
		local := fmt.Sprintf("%s/r%04d/m%04d.a%d.fetch%04d", j.Workspace, partition, mapTask, attempt, i)
		rc, size, err := fetch(ctx, src)
		var n int64
		if err == nil {
			n, err = CopySegment(rc, size, fs, local, counters)
		}
		if err != nil {
			if errors.Is(err, ErrIntegrity) {
				counters.AddExtra(CounterFetchIntegrity, 1)
			}
			span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
			return out, &FetchError{Source: src, Err: err}
		}
		span.End(obs.Int("bytes", n))
		counters.AddShuffle(n, src.Records)
		out.Bytes += n
		out.Time += time.Since(t0)
		out.Segs = append(out.Segs, SegmentInfo{
			Partition: partition, File: local, Records: src.Records, RawBytes: src.RawBytes,
		})
	}
	return out, nil
}
