package mr

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path"
	"slices"
	"sort"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/obs"
)

// mapBuffer is the map-side collect buffer: records accumulate in an
// arena until SortBufferBytes is reached, then the buffer is bucketed
// by partition, key-sorted per bucket, and spilled to one file per
// partition, optionally running the combiner over each sorted key
// group — Hadoop's collect / sort-and-spill pipeline. The arena, entry
// index, and bucketing scratch come from the run's free list or the
// cross-run pools (unless the job disables pooling) and are released by
// finish, so steady-state tasks reuse each other's buffers instead of
// growing fresh ones.
type mapBuffer struct {
	job      *Job
	fs       iokit.FS
	counters *Counters
	taskID   int
	attempt  int
	dir      string // attempt-scoped output directory

	arena   []byte
	entries []bufEntry
	scratch []bufEntry // partition-bucketing scatter target
	offs    []int      // per-partition counters/offsets scratch
	spills  int
	segs    []SegmentInfo
}

type bufEntry struct {
	partition          int32
	keyOff, keyLen     int32
	valueOff, valueLen int32
}

func newMapBuffer(job *Job, fs iokit.FS, counters *Counters, taskID, attempt int) *mapBuffer {
	return &mapBuffer{
		job: job, fs: fs, counters: counters,
		taskID: taskID, attempt: attempt,
		dir:     mapTaskDir(job, taskID, attempt),
		arena:   job.bufs.arenas.get(),
		entries: job.bufs.entries.get(),
		scratch: job.bufs.entries.get(),
	}
}

// release returns the buffer's pooled memory. Call once, after the last
// spill; the produced segments live on disk and keep no reference.
func (b *mapBuffer) release() {
	b.job.bufs.arenas.put(b.arena)
	b.job.bufs.entries.put(b.entries)
	b.job.bufs.entries.put(b.scratch)
	b.arena, b.entries, b.scratch, b.offs = nil, nil, nil, nil
}

func (b *mapBuffer) key(e bufEntry) []byte {
	return b.arena[e.keyOff : e.keyOff+e.keyLen]
}

func (b *mapBuffer) value(e bufEntry) []byte {
	return b.arena[e.valueOff : e.valueOff+e.valueLen]
}

// recordMetaBytes charges each buffered record for its index entry,
// mirroring Hadoop's 16-byte kvmeta accounting — record count, not just
// payload, drives spill frequency.
const recordMetaBytes = 16

// add copies one record into the buffer, spilling first if it is full.
func (b *mapBuffer) add(partition int, key, value []byte) error {
	used := len(b.arena) + recordMetaBytes*len(b.entries)
	if used+len(key)+len(value)+recordMetaBytes > b.job.SortBufferBytes && len(b.entries) > 0 {
		if err := b.spill(); err != nil {
			return err
		}
	}
	if need := len(b.arena) + len(key) + len(value); need > cap(b.arena) {
		b.growArena(need)
	}
	ko := int32(len(b.arena))
	b.arena = append(b.arena, key...)
	vo := int32(len(b.arena))
	b.arena = append(b.arena, value...)
	b.entries = append(b.entries, bufEntry{
		partition: int32(partition),
		keyOff:    ko, keyLen: int32(len(key)),
		valueOff: vo, valueLen: int32(len(value)),
	})
	return nil
}

// growArena reallocates the arena to hold need bytes: doubling, capped
// at the sort buffer (a spill empties the arena before it could outgrow
// that; only a single record larger than the whole buffer exceeds it).
// append's own growth of a large slice is 1.25x, which allocates five
// times the final size on the way there; doubling allocates twice.
func (b *mapBuffer) growArena(need int) {
	size := max(2*cap(b.arena), need)
	if limit := b.job.SortBufferBytes; size > limit && need <= limit {
		size = limit
	}
	grown := make([]byte, len(b.arena), size)
	copy(grown, b.arena)
	b.arena = grown
}

// spillWorkers bounds a spill-internal worker pool at the job's spill
// parallelism and the amount of independent work.
func (b *mapBuffer) spillWorkers(n int) int {
	if w := b.job.SpillParallelism; w < n {
		return w
	}
	return n
}

// spill orders the buffered records by (partition, key) — partition
// bucketing followed by an in-bucket key sort — and writes one sorted
// segment per non-empty partition, in parallel across partitions when
// SpillParallelism allows.
func (b *mapBuffer) spill() error {
	if len(b.entries) == 0 {
		return nil
	}
	span := b.job.Tracer.Start(obs.KindSpill,
		fmt.Sprintf("%s/spill%04d", b.dir, b.spills),
		obs.Int("records", int64(len(b.entries))),
		obs.Int("parallelism", int64(b.job.SpillParallelism)))
	ends := b.sortByPartitionKey()

	spillID := b.spills
	b.spills++
	b.counters.spills.Add(1)

	// Cut the ordered entries into per-partition runs. Runs write
	// independent files, so they proceed concurrently; segments are
	// committed in partition order regardless of completion order, which
	// keeps b.segs — and therefore every downstream merge — identical to
	// the sequential path.
	type run struct {
		name    string
		part    int
		entries []bufEntry
	}
	runs := make([]run, 0, len(ends))
	start := 0
	for part, end := range ends {
		if end > start {
			runs = append(runs, run{
				name:    fmt.Sprintf("%s/spill%04d.p%04d", b.dir, spillID, part),
				part:    part,
				entries: b.entries[start:end],
			})
		}
		start = end
	}
	segs := make([]SegmentInfo, len(runs))
	err := runPool(context.Background(), b.spillWorkers(len(runs)), len(runs), func(_ context.Context, i int) error {
		seg, err := b.writeRun(runs[i].name, runs[i].part, runs[i].entries)
		if err != nil {
			return err
		}
		segs[i] = seg
		return nil
	})
	if err != nil {
		span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
		return err
	}
	b.segs = append(b.segs, segs...)
	b.arena = b.arena[:0]
	b.entries = b.entries[:0]
	span.End(obs.Int("segments", int64(len(segs))))
	return nil
}

// sortByPartitionKey orders b.entries by (partition, key) and returns
// the per-partition bucket end offsets. Instead of one comparison sort
// over the composite (partition, key), it buckets by partition with a
// stable O(n) counting scatter and then key-sorts each bucket. Within a
// bucket, equal keys keep insertion order: entries are appended to the
// arena in emission order, so keyOff is a unique, monotone insertion
// stamp (entries with equal keyOff are fully empty records, where order
// cannot matter) and serves as the tie-break — an unstable sort with
// this tie-break reproduces the stable sort's order exactly.
func (b *mapBuffer) sortByPartitionKey() []int {
	nPart := b.job.NumReduceTasks
	n := len(b.entries)
	if cap(b.offs) < nPart {
		b.offs = make([]int, nPart)
	}
	offs := b.offs[:nPart]
	for i := range offs {
		offs[i] = 0
	}
	for _, e := range b.entries {
		offs[e.partition]++
	}
	sum := 0
	for p, c := range offs {
		offs[p] = sum
		sum += c
	}
	if cap(b.scratch) < n {
		b.scratch = make([]bufEntry, 0, n)
	}
	scratch := b.scratch[:n]
	for _, e := range b.entries {
		scratch[offs[e.partition]] = e
		offs[e.partition]++
	}
	// After the scatter offs[p] is bucket p's end offset. Swap the
	// scatter target in as the live entry slice; the old one becomes
	// next spill's scratch.
	b.entries, b.scratch = scratch, b.entries[:0]

	if b.job.rawKeyOrder {
		// Fast path: the default raw-bytes order inlines bytes.Compare
		// instead of calling through the comparator function value.
		arena := b.arena
		start := 0
		for _, end := range offs {
			if end-start > 1 {
				slices.SortFunc(b.entries[start:end], func(x, y bufEntry) int {
					if c := bytes.Compare(arena[x.keyOff:x.keyOff+x.keyLen], arena[y.keyOff:y.keyOff+y.keyLen]); c != 0 {
						return c
					}
					return int(x.keyOff - y.keyOff)
				})
			}
			start = end
		}
		return offs
	}
	cmp := b.job.KeyCompare
	start := 0
	for _, end := range offs {
		if end-start > 1 {
			slices.SortFunc(b.entries[start:end], func(x, y bufEntry) int {
				if c := cmp(b.key(x), b.key(y)); c != 0 {
					return c
				}
				return int(x.keyOff - y.keyOff)
			})
		}
		start = end
	}
	return offs
}

// segmentSink is the write side of one segment file: file → CRC32C
// framing (the outermost on-disk layer) → codec → framed-record writer.
// It centralizes the layering and the close chain so spill runs and
// merge outputs cannot drift apart.
type segmentSink struct {
	f  io.WriteCloser
	ck *checksumWriter
	cw io.WriteCloser // codec writer
	w  *bytesx.Writer
}

// newSegmentSink creates name on fs and stacks the segment write layers
// over it. On error nothing is left open and the partial file is
// removed.
func newSegmentSink(job *Job, fs iokit.FS, name string) (*segmentSink, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	ck := newChecksumWriter(f)
	cw, err := job.Codec.NewWriter(ck)
	if err != nil {
		ck.release()
		f.Close()
		removeQuiet(fs, name)
		return nil, err
	}
	return &segmentSink{f: f, ck: ck, cw: cw, w: getRecordWriter(cw)}, nil
}

// close flushes and closes every layer in order (err carries the
// caller's write error, if any, so close errors never mask it) and
// reports the framed record count and pre-codec bytes.
func (s *segmentSink) close(err error) (records, rawBytes int64, _ error) {
	if err == nil {
		err = s.w.Flush()
	}
	records, rawBytes = s.w.Records(), s.w.Bytes()
	putRecordWriter(s.w)
	if cerr := s.cw.Close(); err == nil {
		err = cerr
	}
	if cerr := s.ck.Close(); err == nil {
		err = cerr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return records, rawBytes, err
}

// writeRun writes one sorted partition run, applying the combiner when
// configured. On error the partial run file is removed.
func (b *mapBuffer) writeRun(name string, partition int, entries []bufEntry) (SegmentInfo, error) {
	sink, err := newSegmentSink(b.job, b.fs, name)
	if err != nil {
		return SegmentInfo{}, err
	}
	w := sink.w

	if b.job.NewCombiner != nil {
		span := b.job.Tracer.Start(obs.KindCombine, name, obs.Int("records_in", int64(len(entries))))
		err = b.combineRun(partition, entries, w)
		if err == nil {
			span.End(obs.Int("records_out", w.Records()))
		} else {
			span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
		}
	} else {
		for _, e := range entries {
			if err = w.WriteRecord(b.key(e), b.value(e)); err != nil {
				break
			}
		}
	}
	records, rawBytes, err := sink.close(err)
	if err != nil {
		removeQuiet(b.fs, name)
		return SegmentInfo{}, err
	}
	return SegmentInfo{Partition: partition, File: name, Records: records, RawBytes: rawBytes}, nil
}

// combineRun groups the sorted entries by key and runs the combiner over
// each group, writing its output to w.
func (b *mapBuffer) combineRun(partition int, entries []bufEntry, w *bytesx.Writer) error {
	combiner := b.job.NewCombiner()
	info := &TaskInfo{
		JobName:       b.job.Name,
		Scratch:       b.dir,
		TaskID:        b.taskID,
		Partition:     partition,
		Attempt:       b.attempt,
		NumPartitions: b.job.NumReduceTasks,
		Partitioner:   b.job.Partitioner,
		KeyCompare:    b.job.KeyCompare,
		GroupCompare:  b.job.GroupCompare,
		Counters:      b.counters,
		FS:            b.fs,
		Tracer:        b.job.Tracer,
	}
	out := EmitterFunc(func(k, v []byte) error {
		b.counters.combineOutRecords.Add(1)
		return w.WriteRecord(k, v)
	})
	if err := combiner.Setup(info, out); err != nil {
		return err
	}
	cmp := b.job.KeyCompare
	vi := &runValueIter{b: b} // one iterator, re-pointed at each group
	for start := 0; start < len(entries); {
		end := start
		key := b.key(entries[start])
		for end < len(entries) && cmp(b.key(entries[end]), key) == 0 {
			end++
		}
		b.counters.combineInRecords.Add(int64(end - start))
		vi.group = entries[start:end]
		if err := combiner.Reduce(key, vi, out); err != nil {
			return err
		}
		start = end
	}
	return combiner.Cleanup(out)
}

// runValueIter streams the values of one key group of a sorted run.
type runValueIter struct {
	b     *mapBuffer
	group []bufEntry // the values not yet returned
}

// Next implements ValueIter.
func (it *runValueIter) Next() ([]byte, bool) {
	if len(it.group) == 0 {
		return nil, false
	}
	v := it.b.value(it.group[0])
	it.group = it.group[1:]
	return v, true
}

// finish spills any buffered records, releases the pooled buffers, and
// merges each partition's spill segments into a single map output
// segment, mirroring Hadoop's final on-disk merge. Per-partition merges
// are independent and run under the spill-parallelism bound. With a
// single spill the spill files are the output.
func (b *mapBuffer) finish() ([]SegmentInfo, error) {
	if err := b.spill(); err != nil {
		return nil, err
	}
	b.release()
	if b.spills <= 1 {
		return b.segs, nil
	}
	byPart := make(map[int][]SegmentInfo)
	for _, s := range b.segs {
		byPart[s.Partition] = append(byPart[s.Partition], s)
	}
	parts := make([]int, 0, len(byPart))
	for part := range byPart {
		parts = append(parts, part)
	}
	sort.Ints(parts)
	// Hadoop applies the combiner during the final merge only when
	// enough spills occurred (min.num.spills.for.combine, default 3).
	useCombiner := b.job.NewCombiner != nil && b.spills >= 3
	out := make([]SegmentInfo, len(parts))
	err := runPool(context.Background(), b.spillWorkers(len(parts)), len(parts), func(_ context.Context, i int) error {
		part := parts[i]
		merged, err := mergeSegments(b.job, b.fs, b.counters,
			fmt.Sprintf("%s/out.p%04d", b.dir, part),
			part, byPart[part], useCombiner, b.taskID, true)
		if err != nil {
			return err
		}
		out[i] = merged
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// openSegment opens a segment file for sorted streaming, verifying the
// CRC32C framing as it reads — every local merge read re-checks
// integrity, not just the shuffle fetch.
func openSegment(job *Job, fs iokit.FS, seg SegmentInfo) (recordStream, error) {
	f, err := fs.Open(seg.File)
	if err != nil {
		return nil, err
	}
	ck := newCRCReader(f, false)
	cr, err := job.Codec.NewReader(ck)
	if err != nil {
		ck.release()
		f.Close()
		return nil, err
	}
	rd := getRecordReader(cr)
	return &readerStream{r: rd, close: func() error {
		putRecordReader(rd)
		ck.release()
		if err := cr.Close(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}}, nil
}

// removeQuiet best-effort deletes a file, tolerating files that were
// never fully created (e.g. a MemFS file whose handle never closed).
func removeQuiet(fs iokit.FS, name string) {
	_ = fs.Remove(name)
}

// mergeSegments k-way merges sorted segments of one partition into a new
// segment file, optionally combining key groups. removeInputs deletes
// consumed input files (the map-side behaviour); reduce-side merges keep
// them when task retries are enabled so a retried attempt can redo the
// merge from intact files. When the input count exceeds the job's merge
// factor, intermediate passes reduce it first (Hadoop's multi-pass
// merge), each pass consuming the smallest candidates — Hadoop's
// Merger policy — so the bytes re-read per extra pass are minimized.
// Intermediate pass files are internal to the merge: they are removed
// once the final pass succeeds, and on any error, so a failed merge
// orphans nothing (the original inputs survive under the reduce-side
// keep-inputs mode, letting a retry redo the merge).
func mergeSegments(job *Job, fs iokit.FS, counters *Counters, name string, partition int, segs []SegmentInfo, useCombiner bool, taskID int, removeInputs bool) (SegmentInfo, error) {
	pass := 0
	var intermediates []string
	cleanup := func() {
		for _, f := range intermediates {
			removeQuiet(fs, f)
		}
	}
	for len(segs) > job.MergeFactor {
		if pass == 0 {
			segs = append([]SegmentInfo(nil), segs...) // callers keep their slices
		}
		// Smallest-first batching; ties break on file name so batch
		// composition — and thus output bytes — stays deterministic.
		sort.SliceStable(segs, func(i, j int) bool {
			if segs[i].RawBytes != segs[j].RawBytes {
				return segs[i].RawBytes < segs[j].RawBytes
			}
			return segs[i].File < segs[j].File
		})
		batch := segs[:job.MergeFactor]
		rest := segs[job.MergeFactor:]
		interName := fmt.Sprintf("%s.pass%04d", name, pass)
		pass++
		inter, err := mergeOnce(job, fs, counters, interName, partition, batch, false, taskID, removeInputs)
		if err != nil {
			cleanup()
			return SegmentInfo{}, err
		}
		intermediates = append(intermediates, interName)
		segs = append(rest, inter)
	}
	final, err := mergeOnce(job, fs, counters, name, partition, segs, useCombiner, taskID, removeInputs)
	if err != nil {
		cleanup()
		return SegmentInfo{}, err
	}
	// Pass files already consumed by a removeInputs merge are gone;
	// under keep-inputs mode this is what deletes them.
	cleanup()
	return final, nil
}

// mergeOnce merges segs into one output segment. Every error path
// closes all still-open input streams and removes the partial output,
// so a failed merge leaks neither file handles nor orphan files.
func mergeOnce(job *Job, fs iokit.FS, counters *Counters, name string, partition int, segs []SegmentInfo, useCombiner bool, taskID int, removeInputs bool) (seg SegmentInfo, err error) {
	streams := make([]recordStream, 0, len(segs))
	defer func() {
		if err != nil {
			// Streams exhausted to EOF have closed themselves; close the
			// rest and drop whatever partial output exists.
			for _, st := range streams {
				closeRecordStream(st)
			}
			removeQuiet(fs, name)
		}
	}()
	for _, s := range segs {
		st, oerr := openSegment(job, fs, s)
		if oerr != nil {
			err = oerr
			return SegmentInfo{}, err
		}
		streams = append(streams, st)
	}
	merged, err := newMergeIter(streams, job.KeyCompare)
	if err != nil {
		return SegmentInfo{}, err
	}

	sink, err := newSegmentSink(job, fs, name)
	if err != nil {
		return SegmentInfo{}, err
	}
	w := sink.w

	if useCombiner {
		span := job.Tracer.Start(obs.KindCombine, name)
		// A combining merge is a map task's final merge: its output lies
		// in the attempt's directory, which is the combiner's scratch.
		err = combineMerged(job, fs, counters, partition, merged, w, taskID, path.Dir(name))
		if err == nil {
			span.End(obs.Int("records_out", w.Records()))
		} else {
			span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
		}
	} else {
		for {
			k, v, nerr := merged.next()
			if nerr == io.EOF {
				break
			}
			if nerr != nil {
				err = nerr
				break
			}
			if err = w.WriteRecord(k, v); err != nil {
				break
			}
		}
	}
	records, rawBytes, err := sink.close(err)
	if err != nil {
		return SegmentInfo{}, err
	}
	if removeInputs {
		for _, s := range segs {
			if err = fs.Remove(s.File); err != nil {
				return SegmentInfo{}, err
			}
		}
	}
	return SegmentInfo{Partition: partition, File: name, Records: records, RawBytes: rawBytes}, nil
}

// combineMerged runs the combiner over key groups of a merged stream.
func combineMerged(job *Job, fs iokit.FS, counters *Counters, partition int, merged *mergeIter, w *bytesx.Writer, taskID int, scratch string) error {
	combiner := job.NewCombiner()
	info := &TaskInfo{
		JobName:       job.Name,
		Scratch:       scratch,
		TaskID:        taskID,
		Partition:     partition,
		NumPartitions: job.NumReduceTasks,
		Partitioner:   job.Partitioner,
		KeyCompare:    job.KeyCompare,
		GroupCompare:  job.GroupCompare,
		Counters:      counters,
		FS:            fs,
		Tracer:        job.Tracer,
	}
	out := EmitterFunc(func(k, v []byte) error {
		counters.combineOutRecords.Add(1)
		return w.WriteRecord(k, v)
	})
	if err := combiner.Setup(info, out); err != nil {
		return err
	}
	grouped := newGroupedIter(merged, job.KeyCompare)
	vi := grouped.groupValues()
	counting := &countingValueIter{vi, counters}
	for {
		key, ok, err := grouped.nextGroup()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := combiner.Reduce(key, counting, out); err != nil {
			return err
		}
		if err := vi.drain(); err != nil {
			return err
		}
	}
	return combiner.Cleanup(out)
}

// countingValueIter meters the values a merge-time combiner pulls.
type countingValueIter struct {
	in       *groupValueIter
	counters *Counters
}

// Next implements ValueIter.
func (it *countingValueIter) Next() ([]byte, bool) {
	v, ok := it.in.Next()
	if ok {
		it.counters.combineInRecords.Add(1)
	}
	return v, ok
}
