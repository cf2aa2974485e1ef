package mr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/bytesx"
	"repro/internal/iokit"
)

// recordStream yields framed records in key order. Implementations
// return io.EOF after the last record; returned slices are valid until
// the next call on the same stream.
type recordStream interface {
	next() (key, value []byte, err error)
}

// readerStream adapts a bytesx.Reader (over a spill or segment file).
// It closes itself on clean EOF; close may release the reader to a pool,
// so next guards against use after release.
type readerStream struct {
	r     *bytesx.Reader
	close func() error
}

func (s *readerStream) next() ([]byte, []byte, error) {
	if s.r == nil {
		return nil, nil, io.EOF
	}
	k, v, err := s.r.ReadRecord()
	if errors.Is(err, io.EOF) {
		if cerr := s.closeStream(); cerr != nil {
			return nil, nil, cerr
		}
	}
	return k, v, err
}

// closeStream closes the underlying file (and returns any pooled
// reader). It is idempotent, so error-path cleanup can close every
// stream of a merge without tracking which ones already hit EOF.
func (s *readerStream) closeStream() error {
	if s.close == nil {
		return nil
	}
	c := s.close
	s.close = nil
	s.r = nil
	return c()
}

// streamCloser is implemented by record streams holding resources that
// outlive a failed merge.
type streamCloser interface {
	closeStream() error
}

// mergeIter merges multiple sorted record streams into one sorted
// stream, breaking key ties by stream index so merging is deterministic
// and stable. Its min-heap is typed: under the raw-bytes order (a nil
// cmp) each item caches its key's 8-byte prefix (bytesx.KeyPrefix), so most
// comparisons are one integer compare; otherwise it calls cmp.
type mergeIter struct {
	items  []*mergeItem
	cmp    bytesx.Compare // nil: raw key bytes
	err    error
	pushed int // streams pushed so far: the next one's index
}

type mergeItem struct {
	key, value []byte
	prefix     uint64 // bytesx.KeyPrefix(key), kept under the raw order only
	// spareKey/spareVal double-buffer the stream's records: the slices
	// handed to the caller at call n are recycled as the copy target at
	// call n+1, honoring the documented one-call validity window with
	// zero steady-state allocation.
	spareKey, spareVal []byte
	stream             recordStream
	index              int
}

// newMergeIter primes one heap entry per non-empty stream. A nil cmp
// merges by raw key bytes (Job.mergeCompare).
func newMergeIter(streams []recordStream, cmp bytesx.Compare) (*mergeIter, error) {
	m := &mergeIter{cmp: cmp}
	for _, s := range streams {
		if err := m.push(s); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// openMerge opens segs, in order, as one merge in the normalized job's
// key order. On error it leaves nothing open; a caller that stops before
// the merge's EOF closes it (mergeIter.close).
func openMerge(job *Job, fs iokit.FS, segs []SegmentInfo) (*mergeIter, error) {
	m := &mergeIter{cmp: job.mergeCompare()}
	for _, s := range segs {
		st, err := openSegment(job.Codec, fs, s.File)
		if err == nil {
			if err = m.push(st); err != nil {
				st.closeStream()
			}
		}
		if err != nil {
			m.close()
			return nil, err
		}
	}
	return m, nil
}

// close closes the streams not yet exhausted (one that reached EOF has
// closed itself) and empties the heap, returning the first close error.
func (m *mergeIter) close() error {
	var firstErr error
	for i, it := range m.items {
		if c, ok := it.stream.(streamCloser); ok {
			if err := c.closeStream(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		m.items[i] = nil
	}
	m.items = m.items[:0]
	return firstErr
}

// push primes s's first record into the heap, tying after every stream
// pushed before it. An empty s is dropped.
func (m *mergeIter) push(s recordStream) error {
	index := m.pushed
	m.pushed++
	k, v, err := s.next()
	if errors.Is(err, io.EOF) {
		return nil
	}
	if err != nil {
		return err
	}
	it := &mergeItem{
		key:    bytesx.Clone(k),
		value:  bytesx.Clone(v),
		stream: s,
		index:  index,
	}
	if m.cmp == nil {
		it.prefix = bytesx.KeyPrefix(it.key)
	}
	m.items = append(m.items, it)
	for i := len(m.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !m.less(m.items[i], m.items[parent]) {
			break
		}
		m.items[i], m.items[parent] = m.items[parent], m.items[i]
		i = parent
	}
	return nil
}

// less orders items by key, then stream index.
func (m *mergeIter) less(a, b *mergeItem) bool {
	var c int
	if m.cmp == nil {
		if a.prefix != b.prefix {
			return a.prefix < b.prefix
		}
		c = bytes.Compare(a.key, b.key)
	} else {
		c = m.cmp(a.key, b.key)
	}
	if c != 0 {
		return c < 0
	}
	return a.index < b.index
}

// down sifts the item at i toward the leaves until the heap holds.
func (m *mergeIter) down(i int) {
	h := m.items
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		j := l
		if r := l + 1; r < len(h) && m.less(h[r], h[l]) {
			j = r
		}
		if !m.less(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// next returns the globally smallest record, or io.EOF. The returned
// slices are valid until the following call.
func (m *mergeIter) next() ([]byte, []byte, error) {
	if m.err != nil {
		return nil, nil, m.err
	}
	if len(m.items) == 0 {
		return nil, nil, io.EOF
	}
	top := m.items[0]
	key, value := top.key, top.value
	// Advance the winning stream and restore the heap. The popped
	// key/value are handed to the caller; the stream's next record is
	// copied into the item's spare buffers (recycled from the record
	// handed out one call earlier), so the steady state allocates
	// nothing.
	k, v, err := top.stream.next()
	if errors.Is(err, io.EOF) {
		last := len(m.items) - 1
		m.items[0], m.items[last] = m.items[last], nil
		m.items = m.items[:last]
	} else if err != nil {
		m.err = err
		return nil, nil, err
	} else {
		same := bytes.Equal(k, key)
		top.spareKey = append(top.spareKey[:0], k...)
		top.spareVal = append(top.spareVal[:0], v...)
		top.key, top.spareKey = top.spareKey, top.key
		top.value, top.spareVal = top.spareVal, top.value
		if same {
			// The stream repeated its key byte for byte, which every order
			// holds equal: the item's (key, index) is unchanged, so it still
			// heads the heap, and a run of one key costs no sift per record.
			return key, value, nil
		}
		if m.cmp == nil {
			top.prefix = bytesx.KeyPrefix(top.key)
		}
	}
	m.down(0)
	return key, value, nil
}

// RunMerger is a cursor over the engine's merge heap for a caller that
// spills sorted runs of its own (anticombine's Shared). The runs are
// record files (CreateRecordFile) that the merger owns: it reads them
// through the CRC32C verifier, removes a run's file as soon as the run
// is exhausted, and removes the rest at Close. Equal keys come from
// earlier pushed runs first, and in file order within a run.
type RunMerger struct {
	fs iokit.FS
	m  mergeIter
}

// NewRunMerger returns an empty merger of record files on fs, ordered by
// cmp (nil: raw key bytes).
func NewRunMerger(fs iokit.FS, cmp bytesx.Compare) RunMerger {
	return RunMerger{fs: fs, m: mergeIter{cmp: cmp}}
}

// Push adds the record file name as the newest run. A file with no
// records, or one that cannot be read, is removed instead.
func (c *RunMerger) Push(name string) error {
	st, err := openSegment(nil, c.fs, name)
	if err != nil {
		removeQuiet(c.fs, name)
		return err
	}
	closeFile := st.close
	st.close = func() error {
		err := closeFile()
		if rerr := c.fs.Remove(name); err == nil {
			err = rerr
		}
		return err
	}
	if err := c.m.push(st); err != nil {
		st.closeStream()
		return err
	}
	return nil
}

// Len reports how many runs are not yet exhausted.
func (c *RunMerger) Len() int { return len(c.m.items) }

// Peek returns the smallest key without consuming it, valid until the
// next Next.
func (c *RunMerger) Peek() ([]byte, bool) {
	if len(c.m.items) == 0 {
		return nil, false
	}
	return c.m.items[0].key, true
}

// Next pops the smallest record, or returns io.EOF once every run is
// exhausted. Its slices are valid until the following Next. An error is
// sticky.
func (c *RunMerger) Next() (key, value []byte, err error) { return c.m.next() }

// Close closes the runs not yet exhausted and removes their files,
// leaving the merger empty.
func (c *RunMerger) Close() error { return c.m.close() }

// groupedIter walks a sorted record stream — a merge, or a spill run's
// buffered entries — one key group at a time, where a group is a
// maximal run of keys equal under cmp (nil: byte-identical keys, the
// raw order's groups). It backs the ValueIter handed to Reduce calls,
// and allocates nothing per group: the group key is copied into one
// reused buffer, the record that ends a group is held as the stream
// handed it out (valid until the stream's following next, which only
// the next group's second value triggers), and one ValueIter serves
// every group. Hence Reduce's contract: key and values are valid only
// for the call.
//
// A spill run grouped by raw bytes has a fast path: its entries cache
// their key's prefix and length, so whether the next entry extends the
// group is decided without reading key bytes from the arena
// (entryStream.headIs). A combiner then touches the arena only for
// the values it reads, whose cache misses overlap; a byte comparison per
// record would put a miss on every record's critical path.
type groupedIter struct {
	in     recordStream
	cmp    bytesx.Compare // nil: raw key bytes
	run    *entryStream   // in, when it is a spill run and cmp is nil
	prefix uint64         // bytesx.KeyPrefix(key), kept when run is set

	key        []byte // the current group's first key, copied
	pendingKey []byte // first record of the next group, as the stream returned it
	pendingVal []byte
	hasPending bool
	done       bool
	err        error
	records    int64 // records read from in

	values groupValueIter
}

func newGroupedIter(in recordStream, cmp bytesx.Compare) *groupedIter {
	g := &groupedIter{in: in, cmp: cmp}
	if cmp == nil {
		g.run, _ = in.(*entryStream)
	}
	g.values.g = g
	return g
}

// read returns in's next record, or false at its end or on an error,
// which it keeps.
func (g *groupedIter) read() (k, v []byte, ok bool) {
	k, v, err := g.in.next()
	if err != nil {
		if errors.Is(err, io.EOF) {
			g.done = true
		} else {
			g.err = err
		}
		return nil, nil, false
	}
	g.records++
	return k, v, true
}

// inGroup reports whether k belongs to the current group.
func (g *groupedIter) inGroup(k []byte) bool {
	if g.cmp == nil {
		return bytes.Equal(k, g.key)
	}
	return g.cmp(k, g.key) == 0
}

// nextGroup positions the iterator at the next key group, returning its
// first key, or false when the stream is exhausted. The key is valid
// until the following nextGroup.
func (g *groupedIter) nextGroup() ([]byte, bool, error) {
	if g.err != nil || g.done {
		return nil, false, g.err
	}
	if !g.hasPending {
		k, v, ok := g.read()
		if !ok {
			return nil, false, g.err
		}
		g.pendingKey, g.pendingVal = k, v
		g.hasPending = true
	}
	g.key = append(g.key[:0], g.pendingKey...)
	if g.run != nil {
		g.prefix = bytesx.KeyPrefix(g.key)
	}
	return g.key, true, nil
}

// groupValues returns the ValueIter over the current group. It must be
// drained (or abandoned via drain) before nextGroup is called again.
func (g *groupedIter) groupValues() *groupValueIter { return &g.values }

type groupValueIter struct{ g *groupedIter }

// Next implements ValueIter.
func (it *groupValueIter) Next() ([]byte, bool) {
	g := it.g
	if s := g.run; s != nil && !g.hasPending && len(s.es) > 0 && s.headIs(g.prefix, g.key) {
		v := s.b.value(s.es[0])
		s.es = s.es[1:]
		g.records++
		return v, true
	}
	if g.err != nil || g.done {
		return nil, false
	}
	if g.hasPending {
		if !g.inGroup(g.pendingKey) {
			return nil, false
		}
		g.hasPending = false
		return g.pendingVal, true
	}
	k, v, ok := g.read()
	if !ok {
		return nil, false
	}
	if !g.inGroup(k) {
		g.pendingKey, g.pendingVal = k, v
		g.hasPending = true
		return nil, false
	}
	return v, true
}

// drain consumes any unread values of the group so the parent iterator
// can move on even when Reduce did not exhaust its input.
func (it *groupValueIter) drain() error {
	for {
		if _, ok := it.Next(); !ok {
			return it.g.err
		}
	}
}

// runReducer is the engine's one key-group loop, which the reduce task,
// the spill-time combiner and the merge-time combiner all run their
// Reducer through: Setup, then Reduce and a drain for each group of in
// under cmp (nil: byte-identical keys), then Cleanup. ctx is checked
// every ctxCheckInterval groups. It returns the records it read from
// in, the ones no Reduce call asked for included.
func runReducer(ctx context.Context, r Reducer, info *TaskInfo, in recordStream, cmp bytesx.Compare, out Emitter) (int64, error) {
	if err := r.Setup(info, out); err != nil {
		return 0, fmt.Errorf("setup: %w", err)
	}
	g := newGroupedIter(in, cmp)
	vi := g.groupValues()
	for groups := 1; ; groups++ {
		if groups%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return g.records, err
			}
		}
		key, ok, err := g.nextGroup()
		if err != nil {
			return g.records, fmt.Errorf("read: %w", err)
		}
		if !ok {
			break
		}
		if err := r.Reduce(key, vi, out); err != nil {
			return g.records, err
		}
		if err := vi.drain(); err != nil {
			return g.records, fmt.Errorf("read: %w", err)
		}
	}
	if err := r.Cleanup(out); err != nil {
		return g.records, fmt.Errorf("cleanup: %w", err)
	}
	return g.records, nil
}
