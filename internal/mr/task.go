package mr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/bytesx"
	"repro/internal/iokit"
)

// ctxCheckInterval is how many records (or key groups) a task processes
// between context-cancellation checks: frequent enough that a cancelled
// sibling stops promptly, rare enough to stay off the per-record path.
const ctxCheckInterval = 64

// errShortFetch marks a shuffle fetch that delivered fewer bytes than
// the server advertised — a connection-level fault (the peer died or
// its read failed mid-stream).
var errShortFetch = errors.New("mr: short shuffle fetch")

// ErrMisaligned reports a Job.AlignedInput violation: a map emission
// routed off its split's diagonal partition. It is permanent (retrying
// re-runs the same deterministic routing), so the job fails loudly
// instead of silently dropping records the pruned fetch graph would
// never collect.
var ErrMisaligned = errors.New("mr: aligned-input job emitted off-diagonal record")

// isTransientErr classifies the in-process engine's errors worth
// retrying: injected I/O faults from the fault-injection harness, reads
// that ended short, and integrity violations. Context cancellation is
// never transient — it means the job already decided this attempt's
// fate.
func isTransientErr(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, iokit.ErrInjected) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	// Integrity violations (checksum mismatch, truncation) mean the
	// bytes are bad, not the computation: a retry re-reads them.
	return errors.Is(err, ErrIntegrity)
}

// mapTaskDir names a map task's output directory. Attempt 0 keeps the
// historical layout; a retry or re-execution gets its own directory, so
// no attempt writes over another's files.
func mapTaskDir(job *Job, taskID, attempt int) string {
	if attempt == 0 {
		return fmt.Sprintf("%s/m%04d", job.Workspace, taskID)
	}
	return fmt.Sprintf("%s/m%04d.a%d", job.Workspace, taskID, attempt)
}

// runMapTask executes one attempt of a map task: run the Mapper over
// the split, collect/sort/spill its output, and return the final
// per-partition segments. The task's single-threaded wall time is
// charged as map CPU. ctx cancellation is observed between input
// records so cancelled attempts stop promptly.
func runMapTask(ctx context.Context, job *Job, fs iokit.FS, counters *Counters, taskID, attempt int, split Split) (segs []SegmentInfo, err error) {
	start := time.Now()
	defer func() { counters.mapTaskNs.Add(time.Since(start).Nanoseconds()) }()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mr: map task %d: %w", taskID, err)
	}
	// A failed (or cancelled) attempt deletes its attempt-scoped output
	// directory: spill files from before the fault would otherwise
	// orphan, and the attempt dir is private to this attempt so nothing
	// else can be reading it.
	defer func() {
		if err != nil {
			removePrefix(fs, mapTaskDir(job, taskID, attempt)+"/")
		}
	}()

	buf := newMapBuffer(job, fs, counters, taskID, attempt)
	mapper := job.NewMapper()
	info := &TaskInfo{
		JobName:       job.Name,
		Scratch:       buf.dir,
		TaskID:        taskID,
		Partition:     -1,
		Attempt:       attempt,
		NumPartitions: job.NumReduceTasks,
		Partitioner:   job.Partitioner,
		KeyCompare:    job.KeyCompare,
		GroupCompare:  job.GroupCompare,
		Counters:      counters,
		FS:            fs,
		Tracer:        job.Tracer,
	}
	out := &mapCollector{job: job, counters: counters, buf: buf, taskID: taskID,
		partBytes: make([]int64, job.NumReduceTasks)}
	defer out.flush()
	if err := mapper.Setup(info, out); err != nil {
		return nil, fmt.Errorf("mr: map task %d setup: %w", taskID, err)
	}
	var seen int
	err = split.Records(func(k, v []byte) error {
		if seen++; seen%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if out.inRecords++; out.inRecords >= collectorFlushRecords {
			out.flush()
		}
		return mapper.Map(k, v, out)
	})
	if err != nil {
		return nil, fmt.Errorf("mr: map task %d: %w", taskID, err)
	}
	if err := mapper.Cleanup(out); err != nil {
		return nil, fmt.Errorf("mr: map task %d cleanup: %w", taskID, err)
	}
	segs, err = buf.finish()
	if err != nil {
		return nil, fmt.Errorf("mr: map task %d spill/merge: %w", taskID, err)
	}
	return segs, nil
}

// mapCollector is the Emitter a map task's Mapper writes to: it meters
// each record, routes it and adds it to the sort buffer. The meters are
// tallied here and added to the job's shared Counters every
// collectorFlushRecords input or output records and at task end:
// concurrent map tasks would otherwise contend for the same cache lines
// three times per record, while a live observer's Snapshot still
// advances mid-task.
type mapCollector struct {
	job      *Job
	counters *Counters
	buf      *mapBuffer
	taskID   int

	inRecords, outRecords, outBytes int64
	partBytes                       []int64 // framed output bytes per partition
}

const collectorFlushRecords = 4096

// flush adds the tallies to the shared Counters.
func (c *mapCollector) flush() {
	c.counters.mapInputRecords.Add(c.inRecords)
	c.counters.mapOutputRecords.Add(c.outRecords)
	c.counters.mapOutputBytes.Add(c.outBytes)
	c.inRecords, c.outRecords, c.outBytes = 0, 0, 0
	for p, n := range c.partBytes {
		if n != 0 {
			c.counters.AddMapOutputPartition(p, n)
			c.partBytes[p] = 0
		}
	}
}

// Emit implements Emitter.
func (c *mapCollector) Emit(k, v []byte) error {
	return c.EmitPartitioned(c.job.Partitioner.Partition(k, c.job.NumReduceTasks), k, v)
}

// EmitPartitioned is Emit for a wrapper that has already routed the
// record: p must be what the job's Partitioner returns for k. A Mapper
// finds it by type assertion on its Emitter (Anti-Combining partitions
// every record itself, to encode per partition).
func (c *mapCollector) EmitPartitioned(p int, k, v []byte) error {
	job := c.job
	rl := int64(bytesx.RecordLen(k, v))
	c.outRecords++
	c.outBytes += rl
	if p < 0 || p >= job.NumReduceTasks {
		return fmt.Errorf("mr: partitioner returned %d for %d partitions", p, job.NumReduceTasks)
	}
	if job.AlignedInput && p != c.taskID {
		return fmt.Errorf("%w: map task %d emitted key %q routed to partition %d", ErrMisaligned, c.taskID, k, p)
	}
	c.partBytes[p] += rl
	if c.outRecords >= collectorFlushRecords {
		c.flush()
	}
	return c.buf.add(p, k, v)
}

// removePrefix best-effort deletes every file under a name prefix —
// failed-attempt cleanup, where listing errors just mean the sweep is
// skipped.
func removePrefix(fs iokit.FS, prefix string) {
	files, err := fs.List()
	if err != nil {
		return
	}
	for _, f := range files {
		if strings.HasPrefix(f, prefix) {
			removeQuiet(fs, f)
		}
	}
}

// reduceMerge is the compute half of a reduce task: merge the
// partition's (already local) sorted segments and invoke Reduce once
// per key group. attempt scopes pass file names so scheduler retries
// never collide with a previous attempt's partial output.
func reduceMerge(ctx context.Context, job *Job, fs iokit.FS, counters *Counters, partition, attempt int, segs []SegmentInfo) (_ []Record, err error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mr: reduce task %d: %w", partition, err)
	}

	// A reducer closes its scratch files in Cleanup, or when one of its
	// calls fails; an attempt that fails elsewhere — a merge read, a
	// cancellation — reaches neither, so it closes and removes them here.
	scratch := &scratchFS{FS: fs}
	scratchDir := fmt.Sprintf("%s/r%04d/a%d", job.Workspace, partition, attempt)
	defer func() {
		if err != nil {
			scratch.closeAll()
			removePrefix(fs, scratchDir+"/")
		}
	}()

	// A shuffle wider than the merge factor is first merged down on
	// "disk" (Hadoop's reduce-side merge); Reduce then streams the rest.
	// The pass files belong to this attempt and go when it ends, either
	// way. When retries are enabled the passes keep their inputs so a
	// later attempt can redo them from intact files.
	passName := fmt.Sprintf("%s/r%04d/merge.a%d", job.Workspace, partition, attempt)
	segs, passes, err := mergePasses(job, fs, counters, passName, partition, segs, partition, job.MaxTaskAttempts == 1)
	defer removeAll(fs, passes)
	if err != nil {
		return nil, err
	}

	streams := make([]recordStream, 0, len(segs))
	// A failed reduce must not hold its inputs open: close whatever
	// streams remain un-exhausted (EOF'd ones have closed themselves).
	defer func() {
		if err != nil {
			for _, st := range streams {
				closeRecordStream(st)
			}
		}
	}()
	for _, s := range segs {
		st, oerr := openSegment(job.Codec, fs, s.File)
		if oerr != nil {
			err = oerr
			return nil, err
		}
		streams = append(streams, st)
	}
	merged, err := newMergeIter(streams, job.mergeCompare())
	if err != nil {
		return nil, err
	}
	grouped := newGroupedIter(merged, job.GroupCompare)

	reducer := job.NewReducer()
	info := &TaskInfo{
		JobName:       job.Name,
		Scratch:       scratchDir,
		TaskID:        partition,
		Partition:     partition,
		Attempt:       attempt,
		NumPartitions: job.NumReduceTasks,
		Partitioner:   job.Partitioner,
		KeyCompare:    job.KeyCompare,
		GroupCompare:  job.GroupCompare,
		Counters:      counters,
		FS:            scratch,
		Tracer:        job.Tracer,
	}
	var collected outputArena
	out := EmitterFunc(func(k, v []byte) error {
		counters.reduceOutRecords.Add(1)
		if !job.DiscardOutput {
			collected.add(k, v)
		}
		return nil
	})
	if err := reducer.Setup(info, out); err != nil {
		return nil, fmt.Errorf("mr: reduce task %d setup: %w", partition, err)
	}
	var groups int
	for {
		if groups++; groups%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("mr: reduce task %d: %w", partition, err)
			}
		}
		key, ok, err := grouped.nextGroup()
		if err != nil {
			return nil, fmt.Errorf("mr: reduce task %d merge: %w", partition, err)
		}
		if !ok {
			break
		}
		vi := grouped.groupValues()
		if err := reducer.Reduce(key, vi, out); err != nil {
			return nil, fmt.Errorf("mr: reduce task %d: %w", partition, err)
		}
		if err := vi.drain(); err != nil {
			return nil, fmt.Errorf("mr: reduce task %d drain: %w", partition, err)
		}
	}
	if err := reducer.Cleanup(out); err != nil {
		return nil, fmt.Errorf("mr: reduce task %d cleanup: %w", partition, err)
	}
	return collected.records(), nil
}

// scratchFS is the filesystem a reducer sees: fs itself, except that it
// keeps a handle on every file the reducer opens for reading, so that a
// failed attempt can close those still open. (The files a reducer
// creates, it closes on every path.)
type scratchFS struct {
	iokit.FS
	mu     sync.Mutex
	opened []*scratchReader
}

// Open implements iokit.FS.
func (s *scratchFS) Open(name string) (io.ReadCloser, error) {
	r, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	h := &scratchReader{ReadCloser: r}
	s.mu.Lock()
	s.opened = append(s.opened, h)
	s.mu.Unlock()
	return h, nil
}

func (s *scratchFS) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.opened {
		h.Close()
	}
}

// scratchReader lets go of its file at Close, so the handles scratchFS
// keeps do not keep closed files' contents alive.
type scratchReader struct{ io.ReadCloser }

func (h *scratchReader) Close() error {
	r := h.ReadCloser
	if r == nil {
		return nil
	}
	h.ReadCloser = nil
	return r.Close()
}

// outputArena collects a reduce task's output records. Keys and values
// are copied into chunks whose size doubles from outputChunkMin to
// outputChunkMax — a task that emits a handful of records pays for a
// handful, one that emits millions pays one allocation per
// outputChunkMax bytes instead of two per record. Every Key and Value
// is a view whose capacity ends where its bytes end, so appending to
// one reallocates it instead of writing into its neighbour. The Record
// headers collect in runs that double up to outputRunMax and are never
// regrown; records joins them into the task's one result slice, so the
// headers cost twice their final size whatever the record count.
type outputArena struct {
	full  [][]Record // filled runs
	run   []Record   // run being filled
	chunk []byte     // current chunk; len is the used part
	next  int        // size of the chunk after this one
}

const (
	outputChunkMin = 256
	outputChunkMax = 256 << 10
	outputRunMax   = 4096
)

func (a *outputArena) add(k, v []byte) {
	n := len(k) + len(v)
	var rec Record
	if a.chunk != nil && n <= cap(a.chunk)-len(a.chunk) {
		a.chunk, rec = placeRecord(a.chunk, k, v)
	} else {
		size := max(a.next, outputChunkMin)
		a.next = min(2*size, outputChunkMax)
		if n > size {
			// A record larger than the next chunk gets an allocation
			// of its own and leaves the current chunk open.
			_, rec = placeRecord(make([]byte, 0, n), k, v)
		} else {
			a.chunk, rec = placeRecord(make([]byte, 0, size), k, v)
		}
	}
	if len(a.run) == cap(a.run) {
		if len(a.run) > 0 {
			a.full = append(a.full, a.run)
		}
		a.run = make([]Record, 0, min(max(2*cap(a.run), 8), outputRunMax))
	}
	a.run = append(a.run, rec)
}

// records returns everything added, in order.
func (a *outputArena) records() []Record {
	if len(a.full) == 0 {
		return a.run
	}
	n := len(a.run)
	for _, run := range a.full {
		n += len(run)
	}
	out := make([]Record, 0, n)
	for _, run := range a.full {
		out = append(out, run...)
	}
	return append(out, a.run...)
}

// placeRecord appends k and v to buf, which must have room for both,
// and returns the capacity-clipped views of the two copies.
func placeRecord(buf, k, v []byte) ([]byte, Record) {
	i := len(buf)
	buf = append(buf, k...)
	j := len(buf)
	buf = append(buf, v...)
	return buf, Record{Key: buf[i:j:j], Value: buf[j:len(buf):len(buf)]}
}

// CopySegment lands one fetched body — a segment or a record file, both
// CRC-framed — in fs as local: it drains rc (closing it) through a
// pooled copy buffer, verifying the frames in flight (pass-through, so
// the copy stays framed), and insists on exactly size bytes. Corruption
// or truncation fails with ErrIntegrity, a short body with
// errShortFetch — both transient — and any failure removes the partial
// file. counters (may be nil) gets the copy's raw-vs-wire byte pair
// when the transport tracks it.
func CopySegment(rc io.ReadCloser, size int64, fs iokit.FS, local string, counters *Counters) (n int64, err error) {
	defer func() {
		if err != nil {
			removeQuiet(fs, local)
		}
	}()
	f, err := fs.Create(local)
	if err != nil {
		rc.Close()
		return 0, err
	}
	buf := getCopyBuf()
	// Hiding f's ReadFrom keeps io.CopyBuffer on buf: *os.File's would
	// copy through a fresh 32 KiB buffer per segment instead.
	n, err = io.CopyBuffer(struct{ io.Writer }{f}, NewIntegrityVerifier(rc), buf)
	putCopyBuf(buf)
	if err == nil {
		countWireBytes(counters, rc, n)
	}
	rc.Close()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && n != size {
		err = fmt.Errorf("fetched %d bytes, want %d: %w", n, size, errShortFetch)
	}
	return n, err
}
