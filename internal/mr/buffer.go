package mr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/bytesx"
	"repro/internal/codec"
	"repro/internal/iokit"
	"repro/internal/obs"
)

// mapBuffer is the map-side collect buffer: records accumulate in an
// arena until SortBufferBytes is reached, then the buffer is bucketed
// by partition, key-sorted per bucket, and spilled to one file per
// partition, optionally running the combiner over each sorted key
// group — Hadoop's collect / sort-and-spill pipeline. The spill files
// are the task's output unless finish merges them to combine. The
// arena, entry index, and bucketing scratch come from the run's free
// list or the cross-run pools and are released by finish, so
// steady-state tasks reuse each other's buffers instead of growing
// fresh ones.
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

// bufEntry indexes one buffered record: its key is arena[keyOff:][:keyLen]
// and its value follows the key directly. prefix is the key's first 8
// bytes, big-endian and zero-padded, so comparing two prefixes as
// integers orders the keys as bytes.Compare does whenever they differ.
type bufEntry struct {
	prefix         uint64
	partition      int32
	keyOff, keyLen int32
	valueLen       int32
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
	off := e.keyOff + e.keyLen
	return b.arena[off : off+e.valueLen]
}

// recordMetaBytes charges each buffered record for its index entry,
// mirroring Hadoop's 16-byte kvmeta accounting — record count, not just
// payload, drives spill frequency.
const recordMetaBytes = 16

// maxArenaBytes is what a bufEntry's int32 offsets can address.
const maxArenaBytes = math.MaxInt32

// errRecordTooLarge reports a record the collect buffer cannot address.
var errRecordTooLarge = errors.New("mr: map output record too large for the collect buffer")

// add copies one record into the buffer, spilling first if it is full.
func (b *mapBuffer) add(partition int, key, value []byte) error {
	used := len(b.arena) + recordMetaBytes*len(b.entries)
	if used+len(key)+len(value)+recordMetaBytes > b.job.SortBufferBytes && len(b.entries) > 0 {
		if err := b.spill(); err != nil {
			return err
		}
	}
	need := len(b.arena) + len(key) + len(value)
	if need > maxArenaBytes {
		return fmt.Errorf("%w: %d key and %d value bytes", errRecordTooLarge, len(key), len(value))
	}
	if need > cap(b.arena) {
		b.growArena(need)
	}
	ko := int32(len(b.arena))
	b.arena = append(b.arena, key...)
	b.arena = append(b.arena, value...)
	b.entries = append(b.entries, bufEntry{
		prefix:    bytesx.KeyPrefix(key),
		partition: int32(partition),
		keyOff:    ko, keyLen: int32(len(key)),
		valueLen: int32(len(value)),
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
		name string
		part int
		in   entryStream
	}
	runs := make([]run, 0, len(ends))
	start := 0
	for part, end := range ends {
		if end > start {
			runs = append(runs, run{
				name: fmt.Sprintf("%s/spill%04d.p%04d", b.dir, spillID, part),
				part: part,
				in:   entryStream{b: b, es: b.entries[start:end]},
			})
		}
		start = end
	}
	segs := make([]SegmentInfo, len(runs))
	err := runPool(context.Background(), b.spillWorkers(len(runs)), len(runs), func(_ context.Context, i int) error {
		r := &runs[i]
		seg, err := writeSegment(b.job, b.fs, r.name, r.part, &r.in, b.combineInfo(r.part))
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
// arena in emission order, so keyOff is a monotone insertion stamp
// (compareInsertion settles the one shared offset) and serves as the
// tie-break — an unstable sort with this tie-break reproduces the
// stable sort's order exactly. That comparison sort serves a custom
// KeyCompare; under the default raw-bytes order each bucket is
// radix-sorted on the key prefix instead (sortBucketRaw).
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
	// next spill's scratch, and the radix sort's ping-pong buffer now.
	b.entries, b.scratch = scratch, b.entries[:0]

	if b.job.rawKeyOrder {
		tmp := b.scratch[:n]
		start := 0
		for _, end := range offs {
			if end-start > 1 {
				b.sortBucketRaw(b.entries[start:end], tmp[start:end])
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
				return compareInsertion(x, y)
			})
		}
		start = end
	}
	return offs
}

// sortBucketRaw sorts one partition bucket, which the scatter left in
// insertion order, by raw key bytes with equal keys kept in that order;
// tmp is scratch of the same length. A stable radix sort on the prefix
// decides every pair whose prefixes differ. A run of equal prefixes is
// already in order when its keys are identical — all of one length, at
// most 8 bytes. Otherwise its order rests on the bytes past the prefix,
// or on lengths that differ, as in "ab" vs "ab\x00": a run of at least
// radixTailMin entries takes a second radix round on key bytes 8–15
// (sortRunPastPrefix), a shorter one is comparison-sorted.
func (b *mapBuffer) sortBucketRaw(es, tmp []bufEntry) {
	radixSortPrefix(es, tmp)
	for i := 0; i < len(es); {
		j, decided := prefixRun(es, i, 8)
		switch {
		case decided:
		case j-i >= radixTailMin:
			b.sortRunPastPrefix(es[i:j], tmp[i:j])
		default:
			slices.SortFunc(es[i:j], b.compareTail)
		}
		i = j
	}
}

// radixTailMin is the shortest undecided equal-prefix run that a second
// radix round sorts; below it, the round's fixed cost of counting and
// scattering exceeds a comparison sort's.
const radixTailMin = 16

// prefixRun returns the end of the run of equal prefixes starting at
// es[i], and whether those prefixes decide it: its keys are one length,
// at most width bytes, so every key in the run is the same.
func prefixRun(es []bufEntry, i int, width int32) (j int, decided bool) {
	j, decided = i+1, es[i].keyLen <= width
	for j < len(es) && es[j].prefix == es[i].prefix {
		decided = decided && es[j].keyLen == es[i].keyLen
		j++
	}
	return j, decided || j-i == 1
}

// sortRunPastPrefix sorts a run of equal prefixes that the prefix left
// undecided, keeping equal keys in insertion order. Each entry's prefix
// field holds its key bytes 8–15 (keyPrefix of the tail: zero-padded,
// so it orders as bytes.Compare does whenever two differ) for a second
// stable radix round; sub-runs still undecided after it, whose keys
// share 16 bytes or differ only in length, are comparison-sorted. The
// whole run shared its first prefix, which is restored at the end.
func (b *mapBuffer) sortRunPastPrefix(run, tmp []bufEntry) {
	first := run[0].prefix
	for k := range run {
		run[k].prefix = bytesx.KeyPrefix(b.keyTail(run[k]))
	}
	radixSortPrefix(run, tmp)
	for i := 0; i < len(run); {
		j, decided := prefixRun(run, i, 16)
		if !decided {
			slices.SortFunc(run[i:j], b.compareTail)
		}
		i = j
	}
	for k := range run {
		run[k].prefix = first
	}
}

// radixSortPrefix stably sorts es by prefix, least significant byte
// first, ping-ponging between es and tmp. One pass counts all eight
// digits; a digit every entry shares would move nothing and is skipped.
func radixSortPrefix(es, tmp []bufEntry) {
	var counts [8][256]uint32
	for _, e := range es {
		p := e.prefix
		counts[0][byte(p)]++
		counts[1][byte(p>>8)]++
		counts[2][byte(p>>16)]++
		counts[3][byte(p>>24)]++
		counts[4][byte(p>>32)]++
		counts[5][byte(p>>40)]++
		counts[6][byte(p>>48)]++
		counts[7][byte(p>>56)]++
	}
	src, dst := es, tmp
	for d := range counts {
		c, shift := &counts[d], 8*d
		if c[byte(src[0].prefix>>shift)] == uint32(len(src)) {
			continue
		}
		var sum uint32
		for i, v := range c {
			c[i], sum = sum, sum+v
		}
		for _, e := range src {
			k := byte(e.prefix >> shift)
			dst[c[k]] = e
			c[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &es[0] {
		copy(es, src)
	}
}

// compareTail orders entries of equal prefix: by the key bytes past the
// prefix, then by key length — equal prefixes and tails leave only
// zero padding to tell keys of at most 8 bytes apart — then by
// insertion order.
func (b *mapBuffer) compareTail(x, y bufEntry) int {
	if c := bytes.Compare(b.keyTail(x), b.keyTail(y)); c != 0 {
		return c
	}
	if x.keyLen != y.keyLen {
		return int(x.keyLen - y.keyLen)
	}
	return compareInsertion(x, y)
}

// compareInsertion orders entries by when they were added. keyOff is
// that stamp, except that a record with no bytes at all shares its
// offset with the record added after it; the empty one came first.
func compareInsertion(x, y bufEntry) int {
	if x.keyOff != y.keyOff {
		return int(x.keyOff - y.keyOff)
	}
	return int(x.valueLen - y.valueLen)
}

// keyTail is the part of e's key its prefix does not hold.
func (b *mapBuffer) keyTail(e bufEntry) []byte {
	if e.keyLen <= 8 {
		return nil
	}
	return b.arena[e.keyOff+8 : e.keyOff+e.keyLen]
}

// RecordWriter is the write side of one framed file: file → CRC32C
// framing (the outermost on-disk layer) → codec → framed-record writer.
// A record file has no codec layer. Every spill run, merge output, map
// output segment and record file is written through it, so their
// layering and close chain cannot drift apart.
type RecordWriter struct {
	fs   iokit.FS
	name string
	f    io.WriteCloser
	ck   *checksumWriter
	cw   io.WriteCloser // codec writer; nil for a record file
	w    *bytesx.Writer
}

// CreateRecordFile creates name on fs for writing a record file (see
// WriteRecordFile) one record at a time.
func CreateRecordFile(fs iokit.FS, name string) (*RecordWriter, error) {
	return newSegmentSink(nil, fs, name)
}

// newSegmentSink creates name on fs and stacks the write layers over it,
// with c's compression (a nil c: a record file). On error nothing is
// left open and the partial file is removed.
func newSegmentSink(c codec.Codec, fs iokit.FS, name string) (*RecordWriter, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	s := &RecordWriter{fs: fs, name: name, f: f, ck: newChecksumWriter(f)}
	var dst io.Writer = s.ck
	if c != nil {
		if s.cw, err = c.NewWriter(s.ck); err != nil {
			s.ck.release()
			f.Close()
			removeQuiet(fs, name)
			return nil, err
		}
		dst = s.cw
	}
	s.w = bytesx.GetWriter(dst)
	return s, nil
}

// Write appends one record.
func (s *RecordWriter) Write(key, value []byte) error { return s.w.WriteRecord(key, value) }

// Close flushes and closes every layer in order and reports the records
// written and their pre-codec bytes. err is the caller's write error, if
// any, so close errors never mask it; on any error the partial file is
// removed.
func (s *RecordWriter) Close(err error) (records, rawBytes int64, _ error) {
	if err == nil {
		err = s.w.Flush()
	}
	records, rawBytes = s.w.Records(), s.w.Bytes()
	bytesx.PutWriter(s.w)
	if s.cw != nil {
		if cerr := s.cw.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := s.ck.Close(); err == nil {
		err = cerr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		removeQuiet(s.fs, s.name)
	}
	return records, rawBytes, err
}

// combineInfo is the TaskInfo of a combiner over this task's partition
// output, or nil when the job has no combiner.
func (b *mapBuffer) combineInfo(partition int) *TaskInfo {
	if b.job.NewCombiner == nil {
		return nil
	}
	return b.job.taskInfo(b.taskID, partition, b.attempt, b.dir, b.fs, b.counters)
}

// entryStream reads a sorted run of buffered entries as records: views
// into the arena, valid until the buffer is reset after the spill.
type entryStream struct {
	b  *mapBuffer
	es []bufEntry
}

func (s *entryStream) next() ([]byte, []byte, error) {
	if len(s.es) == 0 {
		return nil, nil, io.EOF
	}
	e := s.es[0]
	s.es = s.es[1:]
	return s.b.key(e), s.b.value(e), nil
}

// headIs reports whether the next entry's key is byte-identical to key,
// whose keyPrefix is prefix. The entry's cached prefix and length decide
// it; the arena is read only for key bytes past the eighth.
func (s *entryStream) headIs(prefix uint64, key []byte) bool {
	e := &s.es[0]
	return e.prefix == prefix && int(e.keyLen) == len(key) && (e.keyLen <= 8 || bytes.Equal(s.b.keyTail(*e), key[8:]))
}

// finish spills any buffered records, releases the pooled buffers, and
// returns the task's spill runs ordered by (partition, spill): a reduce
// merges them with the other map tasks' runs, so merging them here would
// only write and read every record once more. The exception is a merge
// that combines: Hadoop applies the combiner in its final on-disk merge
// once enough spills occurred (min.num.spills.for.combine, default 3),
// and so does finish, one merge per partition under the
// Job.SpillParallelism bound.
func (b *mapBuffer) finish() ([]SegmentInfo, error) {
	if err := b.spill(); err != nil {
		return nil, err
	}
	b.release()
	slices.SortStableFunc(b.segs, func(x, y SegmentInfo) int { return x.Partition - y.Partition })
	if b.job.NewCombiner == nil || b.spills < 3 {
		return b.segs, nil
	}
	var parts [][]SegmentInfo
	for rest := b.segs; len(rest) > 0; {
		n := 1
		for n < len(rest) && rest[n].Partition == rest[0].Partition {
			n++
		}
		parts, rest = append(parts, rest[:n]), rest[n:]
	}
	out := make([]SegmentInfo, len(parts))
	err := runPool(context.Background(), b.spillWorkers(len(parts)), len(parts), func(_ context.Context, i int) error {
		part := parts[i][0].Partition
		name := fmt.Sprintf("%s/out.p%04d", b.dir, part)
		segs, passes, err := mergePasses(b.job, b.fs, name, part, parts[i], true)
		defer removeAll(b.fs, passes)
		if err != nil {
			return err
		}
		out[i], err = mergeOnce(b.job, b.fs, name, part, segs, b.combineInfo(part), true)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// openSegment opens a segment file compressed by c (a nil c: a record
// file) for sorted streaming, verifying the CRC32C framing as it reads —
// every local merge read re-checks integrity, not just the shuffle
// fetch.
func openSegment(c codec.Codec, fs iokit.FS, name string) (*readerStream, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	return readSegment(c, f)
}

// readSegment stacks the read layers RecordWriter wrote over f: the
// stripping CRC32C parser, c's decompression unless c is nil, and the
// framed-record reader. Closing the stream closes f.
func readSegment(c codec.Codec, f io.ReadCloser) (*readerStream, error) {
	ck := newCRCReader(f, false)
	var src io.Reader = ck
	var cr io.ReadCloser
	if c != nil {
		var err error
		if cr, err = c.NewReader(ck); err != nil {
			ck.release()
			f.Close()
			return nil, err
		}
		src = cr
	}
	rd := bytesx.GetReader(src)
	return &readerStream{r: rd, close: func() error {
		bytesx.PutReader(rd)
		ck.release()
		var err error
		if cr != nil {
			err = cr.Close()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}}, nil
}

// removeQuiet best-effort deletes a file, tolerating files that were
// never fully created (e.g. a MemFS file whose handle never closed).
func removeQuiet(fs iokit.FS, name string) {
	_ = fs.Remove(name)
}

// mergePasses merges segs down to at most job.MergeFactor segments
// (Hadoop's multi-pass merge) and returns them with the pass files it
// wrote, which the caller removes once it has read them — also on error,
// when the pass files are those written so far. Each pass merges the
// contiguous window of segments with the fewest raw bytes and puts its
// output where the window was, so equal keys keep their order across
// segments (Plan.Sources), and it merges no more segments than it takes
// to reach the merge factor, so the bytes passes re-read stay small.
// removeInputs deletes the segments a pass consumed.
func mergePasses(job *Job, fs iokit.FS, name string, partition int, segs []SegmentInfo, removeInputs bool) (_ []SegmentInfo, passes []string, _ error) {
	for len(segs) > job.MergeFactor {
		width := min(job.MergeFactor, len(segs)-job.MergeFactor+1)
		at, least := 0, int64(math.MaxInt64)
		for i := 0; i+width <= len(segs); i++ {
			var raw int64
			for _, s := range segs[i : i+width] {
				raw += s.RawBytes
			}
			if raw < least {
				at, least = i, raw
			}
		}
		passName := fmt.Sprintf("%s.pass%04d", name, len(passes))
		merged, err := mergeOnce(job, fs, passName, partition, segs[at:at+width], nil, removeInputs)
		if err != nil {
			return nil, passes, err
		}
		passes = append(passes, passName)
		segs = slices.Concat(segs[:at], []SegmentInfo{merged}, segs[at+width:]) // callers keep their slices
	}
	return segs, passes, nil
}

// removeAll best-effort deletes files.
func removeAll(fs iokit.FS, files []string) {
	for _, f := range files {
		removeQuiet(fs, f)
	}
}

// mergeOnce merges segs into one output segment, through a combiner
// described by combine unless it is nil. Every error path closes all
// still-open input streams and removes the partial output, so a failed
// merge leaks neither file handles nor orphan files. removeInputs
// deletes segs once merged.
func mergeOnce(job *Job, fs iokit.FS, name string, partition int, segs []SegmentInfo, combine *TaskInfo, removeInputs bool) (SegmentInfo, error) {
	merged, err := openMerge(job, fs, segs)
	if err != nil {
		return SegmentInfo{}, err
	}
	seg, err := writeSegment(job, fs, name, partition, merged, combine)
	if err != nil {
		merged.close()
		return SegmentInfo{}, err
	}
	if removeInputs {
		for _, s := range segs {
			if err := fs.Remove(s.File); err != nil {
				removeQuiet(fs, name)
				return SegmentInfo{}, err
			}
		}
	}
	return seg, nil
}

// writeSegment writes in's records to the segment name, through a fresh
// combiner described by combine unless it is nil. On error the partial
// file is removed.
func writeSegment(job *Job, fs iokit.FS, name string, partition int, in recordStream, combine *TaskInfo) (SegmentInfo, error) {
	sink, err := newSegmentSink(job.Codec, fs, name)
	if err != nil {
		return SegmentInfo{}, err
	}
	if combine == nil {
		for {
			k, v, rerr := in.next()
			if rerr != nil {
				if rerr != io.EOF {
					err = rerr
				}
				break
			}
			if err = sink.Write(k, v); err != nil {
				break
			}
		}
	} else {
		span := job.Tracer.Start(obs.KindCombine, name)
		var n int64
		n, err = runReducer(context.Background(), job.NewCombiner(), combine, in, job.mergeCompare(), EmitterFunc(sink.Write))
		out := sink.w.Records()
		combine.Counters.combineInRecords.Add(n)
		combine.Counters.combineOutRecords.Add(out)
		if err == nil {
			span.End(obs.Int("records_in", n), obs.Int("records_out", out))
		} else {
			span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
		}
	}
	records, rawBytes, err := sink.Close(err)
	if err != nil {
		return SegmentInfo{}, err
	}
	return SegmentInfo{Partition: partition, File: name, Records: records, RawBytes: rawBytes}, nil
}
