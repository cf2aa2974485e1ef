package mr

import (
	"bytes"
	"errors"
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

// closeRecordStream best-effort closes a stream if it holds resources.
// Used on merge error paths, where the primary error is already being
// returned.
func closeRecordStream(s recordStream) {
	if c, ok := s.(streamCloser); ok {
		_ = c.closeStream()
	}
}

// mergeIter merges multiple sorted record streams into one sorted
// stream, breaking key ties by stream index so merging is deterministic
// and stable. Its min-heap is typed: under the raw-bytes order (a nil
// cmp) each item caches its key's 8-byte prefix (keyPrefix), so most
// comparisons are one integer compare; otherwise it calls cmp.
type mergeIter struct {
	items  []*mergeItem
	cmp    bytesx.Compare // nil: raw key bytes
	err    error
	pushed int // streams pushed so far: the next one's index
}

type mergeItem struct {
	key, value []byte
	prefix     uint64 // keyPrefix(key), kept under the raw order only
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
		it.prefix = keyPrefix(it.key)
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
			top.prefix = keyPrefix(top.key)
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
func (c *RunMerger) Close() error {
	var firstErr error
	for i, it := range c.m.items {
		if err := it.stream.(*readerStream).closeStream(); err != nil && firstErr == nil {
			firstErr = err
		}
		c.m.items[i] = nil
	}
	c.m.items = c.m.items[:0]
	return firstErr
}

// groupedIter walks a merged stream one key group at a time, where a
// group is a maximal run of keys equal under groupCmp. It backs the
// ValueIter handed to Reduce calls, and allocates nothing per group:
// the group key is copied into one reused buffer, the record that ends a
// group is held as the merge handed it out (valid until the merge's
// following next, which only the next group's second value triggers),
// and one ValueIter serves every group. Hence Reduce's contract: key and
// values are valid only for the call.
type groupedIter struct {
	m        *mergeIter
	groupCmp bytesx.Compare

	key        []byte // the current group's first key, copied
	pendingKey []byte // first record of the next group, as the merge returned it
	pendingVal []byte
	hasPending bool
	done       bool
	err        error

	values groupValueIter
}

func newGroupedIter(m *mergeIter, groupCmp bytesx.Compare) *groupedIter {
	g := &groupedIter{m: m, groupCmp: groupCmp}
	g.values.g = g
	return g
}

// nextGroup positions the iterator at the next key group, returning its
// first key, or false when the stream is exhausted. The key is valid
// until the following nextGroup.
func (g *groupedIter) nextGroup() ([]byte, bool, error) {
	if g.err != nil || g.done {
		return nil, false, g.err
	}
	if !g.hasPending {
		k, v, err := g.m.next()
		if errors.Is(err, io.EOF) {
			g.done = true
			return nil, false, nil
		}
		if err != nil {
			g.err = err
			return nil, false, err
		}
		g.pendingKey, g.pendingVal = k, v
		g.hasPending = true
	}
	g.key = append(g.key[:0], g.pendingKey...)
	return g.key, true, nil
}

// groupValues returns the ValueIter over the current group. It must be
// drained (or abandoned via drain) before nextGroup is called again.
func (g *groupedIter) groupValues() *groupValueIter { return &g.values }

type groupValueIter struct{ g *groupedIter }

// Next implements ValueIter.
func (it *groupValueIter) Next() ([]byte, bool) {
	g := it.g
	if g.err != nil || g.done {
		return nil, false
	}
	if g.hasPending {
		if g.groupCmp(g.pendingKey, g.key) != 0 {
			return nil, false
		}
		g.hasPending = false
		return g.pendingVal, true
	}
	k, v, err := g.m.next()
	if errors.Is(err, io.EOF) {
		g.done = true
		return nil, false
	}
	if err != nil {
		g.err = err
		return nil, false
	}
	if g.groupCmp(k, g.key) != 0 {
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
