package anticombine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"sync"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/obs"
)

// combineBatch is how many values accumulate per key before the
// combine-on-insert path folds them into one record. Combining in
// batches keeps Shared's memory within a small constant factor of the
// one-record-per-key ideal (§5) while amortizing combiner invocations.
const combineBatch = 16

// Shared is the reduce-task-level structure of §5 that carries decoded
// key/value pairs between Reduce calls: a min-heap over distinct keys
// plus a hash index from key to values. When the memory budget is
// exceeded, the content is written to a spill file in sorted key order
// (mirroring the map phase's sort-and-spill), and spill files are
// merged when they exceed the merge threshold. Reads are strictly in
// ascending key order — PeekMinKey / PopMinKeyValues — so spilled runs
// are consumed by buffered sequential reads, never random access.
//
// The in-memory part is laid out like the engine's mapBuffer: key and
// value bytes live in one arena, entries address them by offset, and
// arena, entries, value lists, heap and hash index are all recycled, so
// a warm Shared adds and pops without allocating. Popped entries leave
// dead bytes behind; they are reclaimed wholesale when memory empties
// (every spill, and whenever the reducer catches up) and by compaction
// when the arena is mostly dead. Close hands the buffers to the next
// Shared (see sharedBufs), so of the many short-lived instances a job
// creates — one per transformed combiner — only the first few grow them.
//
// With a combiner attached, values are combined on insert so each key
// keeps (nearly) a single record ("Using Combine in the Reduce Phase",
// §5), which in the paper's Table 2 keeps Shared entirely in memory.
type Shared struct {
	cmp      bytesx.Compare
	groupCmp bytesx.Compare

	sharedBufs
	box *sharedBufs // where Close leaves the buffers for the next Shared
	mem int         // live key+value bytes: the quantity memLimit bounds

	memLimit    int
	mergeFactor int
	fs          iokit.FS
	prefix      string
	owner       *antiReducer // names the spill files at the first spill, when prefix is empty
	spillSeq    int
	runs        []*sharedRun
	counters    *mr.Counters
	tracer      *obs.Tracer

	combiner   mr.Reducer
	combineOut mr.Emitter // appends the combiner's output to arena and combined
	combineIn  sliceIter
	spills     int64
}

// sharedBufs is the memory a Shared works in. It outlives the Shared:
// Close empties it and puts it in sharedPool, and the next Shared starts
// with its capacity — arena, entry slots with their value lists, heap,
// hash index and pop buffers already as large as the last one needed.
type sharedBufs struct {
	arena    []byte        // key and value bytes, live and dead
	spare    []byte        // compaction target, swapped with arena
	ents     []sharedEntry // entry slots; a slot keeps its value list's capacity across reuse
	free     []int32       // slots of ents not in use
	heap     []int32       // min-heap of live slots by key
	buckets  []int32       // chained hash index over live slots: slot+1, 0 = end of chain
	combined []valSpan     // the value list a combine is building

	// PopMinKeyValues' result storage: the group key and spilled values
	// in popBuf, the value views in popVals.
	popBuf  []byte
	popVals [][]byte

	// decodeKeys is not Shared's own: it is the AntiReducer's scratch for
	// an EagerSH record's keys, pooled with the buffers they are added to.
	decodeKeys [][]byte
}

var sharedPool sync.Pool // *sharedBufs

// Buffers worth more than this are dropped at Close, not pooled: a
// reduce task's Shared may hold tens of megabytes (theta-join runs it
// with a 64 MiB budget), which one task in a job needs and no
// combiner-sized Shared after it should pin.
const (
	maxPooledArenaBytes = 4 << 20
	maxPooledEntries    = 1 << 15
)

// combineSink is the Emitter combineEntry hands the combiner.
type combineSink struct{ s *Shared }

// Emit implements mr.Emitter.
func (c combineSink) Emit(_, v []byte) error { return c.s.addCombined(v) }

// indexSeed keys every Shared's hash index.
var indexSeed = maphash.MakeSeed()

// valSpan addresses one value in the arena.
type valSpan struct{ off, n int }

// sharedEntry is one distinct in-memory key and its values in arrival
// order. combinedLen remembers the value count the last combine
// produced, so keys whose values the combiner cannot shrink (e.g.
// distinct-query lists) are recombined only after the list doubles —
// amortized linear instead of quadratic.
type sharedEntry struct {
	keyOff, keyLen int
	hash           uint64
	next           int32 // hash chain: slot+1, 0 = end
	vals           []valSpan
	combinedLen    int
}

// SharedConfig configures a Shared instance.
type SharedConfig struct {
	// KeyCompare orders keys; required.
	KeyCompare bytesx.Compare
	// GroupCompare decides key equality for PopMinKeyValues; defaults
	// to KeyCompare.
	GroupCompare bytesx.Compare
	// MemLimitBytes caps in-memory key+value bytes before spilling.
	// Defaults to 1 MiB.
	MemLimitBytes int
	// MergeFactor caps spill runs before they are merged. Defaults to 10.
	MergeFactor int
	// FS receives spill files; required if spilling can occur.
	FS iokit.FS
	// Prefix names spill files.
	Prefix string
	// Combiner, if set, combines values per key on insert (in batches).
	Combiner mr.Reducer
	// Counters, if set, receives the "anti.sharedSpills" and
	// "anti.sharedMerges" counters.
	Counters *mr.Counters
	// Tracer, if set, receives shared-spill and shared-merge spans.
	Tracer *obs.Tracer
}

// NewShared builds an empty Shared.
func NewShared(cfg SharedConfig) *Shared {
	s := new(Shared)
	s.init(cfg)
	return s
}

// init makes s an empty Shared, on pooled buffers when there are any.
func (s *Shared) init(cfg SharedConfig) {
	if cfg.GroupCompare == nil {
		cfg.GroupCompare = cfg.KeyCompare
	}
	if cfg.MemLimitBytes <= 0 {
		cfg.MemLimitBytes = 1 << 20
	}
	if cfg.MergeFactor < 2 {
		cfg.MergeFactor = 10
	}
	*s = Shared{
		cmp:         cfg.KeyCompare,
		groupCmp:    cfg.GroupCompare,
		memLimit:    cfg.MemLimitBytes,
		mergeFactor: cfg.MergeFactor,
		fs:          cfg.FS,
		prefix:      cfg.Prefix,
		counters:    cfg.Counters,
		tracer:      cfg.Tracer,
		combiner:    cfg.Combiner,
	}
	if s.box, _ = sharedPool.Get().(*sharedBufs); s.box != nil {
		s.sharedBufs = *s.box
	} else {
		s.box = new(sharedBufs)
		s.buckets = make([]int32, 64)
	}
	if s.combiner != nil {
		s.combineOut = combineSink{s}
	}
}

func (s *Shared) key(e *sharedEntry) []byte { return s.arena[e.keyOff : e.keyOff+e.keyLen] }

func (s *Shared) value(v valSpan) []byte { return s.arena[v.off : v.off+v.n] }

// compactSlack is how far the arena may outgrow twice its live bytes
// before Add compacts it: small enough that a Shared that never empties
// stays within a constant factor of memLimit, large enough that the
// copy is amortized over at least as many dead bytes as it moves.
const compactSlack = 64 << 10

// Add inserts one decoded key/value pair. Both slices are copied. It
// invalidates the views a previous PopMinKeyValues returned.
func (s *Shared) Add(key, value []byte) error {
	if len(s.arena) > 2*s.mem+compactSlack {
		s.compact()
	}
	h := maphash.Bytes(indexSeed, key)
	id := s.find(key, h)
	if id < 0 {
		id = s.insert(key, h)
	}
	e := &s.ents[id]
	e.vals = append(e.vals, valSpan{len(s.arena), len(value)})
	s.arena = append(grow(s.arena, len(value)), value...)
	s.mem += len(value)
	if s.combiner != nil && len(e.vals) >= combineBatch && len(e.vals) >= 2*e.combinedLen {
		if err := s.combineEntry(e); err != nil {
			return err
		}
	}
	if s.mem > s.memLimit {
		return s.spill()
	}
	return nil
}

// grow returns b with room for n more bytes. It doubles: append grows a
// large slice by a quarter, which over an arena's growth to tens of
// megabytes allocates five times its final size, where doubling
// allocates twice.
func grow(b []byte, n int) []byte {
	if len(b)+n <= cap(b) {
		return b
	}
	return append(make([]byte, 0, max(2*cap(b), len(b)+n)), b...)
}

// find returns the live slot holding key, or -1.
func (s *Shared) find(key []byte, h uint64) int32 {
	for id := s.buckets[h&uint64(len(s.buckets)-1)] - 1; id >= 0; id = s.ents[id].next - 1 {
		if e := &s.ents[id]; e.hash == h && bytes.Equal(s.key(e), key) {
			return id
		}
	}
	return -1
}

// insert copies key into the arena under a recycled (or new) slot and
// links the slot into the heap and the hash index.
func (s *Shared) insert(key []byte, h uint64) int32 {
	id := int32(len(s.ents))
	if n := len(s.free); n > 0 {
		id, s.free = s.free[n-1], s.free[:n-1]
	} else {
		s.ents = append(s.ents, sharedEntry{})
	}
	e := &s.ents[id]
	*e = sharedEntry{keyOff: len(s.arena), keyLen: len(key), hash: h, vals: e.vals[:0]}
	s.arena = append(grow(s.arena, len(key)), key...)
	s.mem += len(key)

	if len(s.heap) >= len(s.buckets) {
		s.growIndex()
	}
	b := &s.buckets[h&uint64(len(s.buckets)-1)]
	e.next, *b = *b, id+1

	s.heap = append(s.heap, id)
	for i := len(s.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if s.cmp(s.key(&s.ents[s.heap[i]]), s.key(&s.ents[s.heap[parent]])) >= 0 {
			break
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
	return id
}

// growIndex doubles the hash index and relinks every live slot.
func (s *Shared) growIndex() {
	s.buckets = make([]int32, 2*len(s.buckets))
	for _, id := range s.heap {
		e := &s.ents[id]
		b := &s.buckets[e.hash&uint64(len(s.buckets)-1)]
		e.next, *b = *b, id+1
	}
}

// popHeap removes and returns the slot with the smallest key. The slot
// stays in the hash index and off the free list until release.
func (s *Shared) popHeap() int32 {
	top := s.heap[0]
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.cmp(s.key(&s.ents[s.heap[r]]), s.key(&s.ents[s.heap[child]])) < 0 {
			child = r
		}
		if s.cmp(s.key(&s.ents[s.heap[child]]), s.key(&s.ents[s.heap[i]])) >= 0 {
			break
		}
		s.heap[i], s.heap[child] = s.heap[child], s.heap[i]
		i = child
	}
	return top
}

// release unlinks a popped slot from the hash index and recycles it.
func (s *Shared) release(id int32) {
	e := &s.ents[id]
	p := &s.buckets[e.hash&uint64(len(s.buckets)-1)]
	for *p != id+1 {
		p = &s.ents[*p-1].next
	}
	*p = e.next
	s.free = append(s.free, id)
}

// resetMem drops the whole in-memory part, keeping every buffer.
func (s *Shared) resetMem() {
	s.free = append(s.free, s.heap...)
	s.arena, s.heap, s.mem = s.arena[:0], s.heap[:0], 0
	clear(s.buckets)
}

// compact copies the live keys and values into the spare arena, in heap
// order, and swaps the two.
func (s *Shared) compact() {
	dst := grow(s.spare[:0], s.mem)
	for _, id := range s.heap {
		e := &s.ents[id]
		off := len(dst)
		dst = append(dst, s.key(e)...)
		e.keyOff = off
		for i, v := range e.vals {
			e.vals[i].off = len(dst)
			dst = append(dst, s.value(v)...)
		}
	}
	s.arena, s.spare = dst, s.arena
}

// combineEntry folds an entry's values into the combiner's output,
// keeping (usually) a single record per key. The combiner reads views of
// the old values while its output is appended to the arena behind them
// (a regrown arena leaves the views the old array).
func (s *Shared) combineEntry(e *sharedEntry) error {
	old := s.popVals[:0]
	for _, v := range e.vals {
		s.mem -= v.n
		old = append(old, s.value(v))
	}
	s.popVals, s.combineIn = old, sliceIter{vals: old}
	s.combined = s.combined[:0]
	if err := s.combiner.Reduce(s.key(e), &s.combineIn, s.combineOut); err != nil {
		return err
	}
	if len(s.combined) == 0 {
		return errors.New("anticombine: combiner emitted no output for Shared insert")
	}
	// Copied, not swapped: the slot keeps the capacity its value list has
	// grown to, for this key's next batch and for the slot's next key.
	e.vals = append(e.vals[:0], s.combined...)
	e.combinedLen = len(e.vals)
	return nil
}

// addCombined takes one value of the combiner's output.
func (s *Shared) addCombined(v []byte) error {
	s.combined = append(s.combined, valSpan{len(s.arena), len(v)})
	s.arena = append(grow(s.arena, len(v)), v...)
	s.mem += len(v)
	return nil
}

// Empty reports whether no keys remain, in memory or spilled.
func (s *Shared) Empty() bool { return len(s.heap) == 0 && len(s.runs) == 0 }

// minRun returns the live spill run with the smallest head key (the
// first of equals), or nil.
func (s *Shared) minRun() *sharedRun {
	var best *sharedRun
	for _, r := range s.runs {
		if !r.done && (best == nil || s.cmp(r.headKey, best.headKey) < 0) {
			best = r
		}
	}
	return best
}

// peekMin returns the smallest key present without copying it. The
// slice is only valid until the next mutation.
func (s *Shared) peekMin() ([]byte, bool) {
	r := s.minRun()
	if len(s.heap) > 0 {
		if k := s.key(&s.ents[s.heap[0]]); r == nil || s.cmp(k, r.headKey) <= 0 {
			return k, true
		}
	}
	if r == nil {
		return nil, false
	}
	return r.headKey, true
}

// PeekMinKey returns (a copy of) the smallest key present.
func (s *Shared) PeekMinKey() ([]byte, bool) {
	best, ok := s.peekMin()
	if !ok {
		return nil, false
	}
	return bytesx.Clone(best), true
}

// PopMinKeyValues removes the smallest key group (all keys equal under
// the grouping comparator) and returns its key and values. Values are
// gathered from memory and spill runs in ascending full-key order —
// "since records are removed from Shared in key order, the values
// passed to o_reducer.reduce are in key order" (§6.1) — which is what
// secondary-sort programs rely on. The returned slices are views into
// Shared's buffers, valid until the next Add or PopMinKeyValues.
func (s *Shared) PopMinKeyValues() (key []byte, values [][]byte, err error) {
	min, ok := s.peekMin()
	if !ok {
		return nil, nil, errors.New("anticombine: PopMinKeyValues on empty Shared")
	}
	// Views into buf stay valid when a later append regrows it: they keep
	// the old array, whose bytes are never rewritten during this call.
	buf := append(s.popBuf[:0], min...)
	key = buf
	values = s.popVals[:0]
	for cur := key; ; {
		// Drain the in-memory entry for exactly this key first, then
		// matching spill-run heads (duplicate-key order between the two
		// sources is unspecified, as in Hadoop).
		for len(s.heap) > 0 && s.cmp(s.key(&s.ents[s.heap[0]]), cur) == 0 {
			id := s.popHeap()
			e := &s.ents[id]
			s.mem -= e.keyLen
			for _, v := range e.vals {
				s.mem -= v.n
				values = append(values, s.value(v))
			}
			s.release(id)
		}
		// The head buffers are reused by advance, so run values are copied.
		for _, r := range s.runs {
			for !r.done && s.cmp(r.headKey, cur) == 0 {
				off := len(buf)
				buf = append(buf, r.headVal...)
				values = append(values, buf[off:len(buf):len(buf)])
				if err := r.advance(); err != nil {
					return nil, nil, err
				}
			}
		}
		if err := s.dropFinishedRuns(); err != nil {
			return nil, nil, err
		}
		next, ok := s.peekMin()
		if !ok || s.groupCmp(next, key) != 0 {
			break
		}
		off := len(buf)
		buf = append(buf, next...)
		cur = buf[off:]
	}
	s.popBuf, s.popVals = buf, values
	if len(s.heap) == 0 {
		// Everything in the arena is dead, and release has already emptied
		// the index. The views just handed out stay intact until the next
		// Add writes over them.
		s.arena, s.mem = s.arena[:0], 0
	}
	return key, values, nil
}

// dropFinishedRuns prunes fully consumed runs and deletes their spill
// files — a long job cycles through many runs, and keeping consumed
// files would leak disk linearly with spill count.
func (s *Shared) dropFinishedRuns() error {
	live := s.runs[:0]
	var firstErr error
	for _, r := range s.runs {
		if r.done {
			if err := s.fs.Remove(r.name); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		live = append(live, r)
	}
	s.runs = live
	return firstErr
}

// Spills reports how many times Shared spilled to disk.
func (s *Shared) Spills() int { return int(s.spills) }

// spill writes the in-memory content to a new sorted run, then merges
// runs if they exceed the merge factor. On a write error the partial run
// file is closed and removed, like mergeRuns' partial output.
func (s *Shared) spill() error {
	if s.fs == nil {
		return errors.New("anticombine: Shared memory limit exceeded and no spill FS configured")
	}
	if s.prefix == "" && s.owner != nil {
		s.prefix = s.owner.spillPrefix()
	}
	name := fmt.Sprintf("%s/shared-spill%04d", s.prefix, s.spillSeq)
	s.spillSeq++
	s.spills++
	if s.counters != nil {
		s.counters.AddExtra(CounterSharedSpills, 1)
	}
	span := s.tracer.Start(obs.KindSharedSpill, name)
	w, err := s.writeRun(name, func(w *bytesx.Writer) error {
		for len(s.heap) > 0 {
			id := s.popHeap()
			s.free = append(s.free, id)
			e := &s.ents[id]
			for _, v := range e.vals {
				if err := w.WriteRecord(s.key(e), s.value(v)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	// Written or lost, the in-memory content is gone.
	s.resetMem()
	if err != nil {
		span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
		return err
	}
	span.End(obs.Int("records", w.Records()), obs.Int("bytes", w.Bytes()))
	if err := s.openRun(name); err != nil {
		return err
	}
	if len(s.runs) > s.mergeFactor {
		return s.mergeRuns()
	}
	return nil
}

// writeRun creates name, lets fill write its records and closes it. On
// any error the partially written file is closed and best-effort removed.
func (s *Shared) writeRun(name string, fill func(*bytesx.Writer) error) (*bytesx.Writer, error) {
	f, err := s.fs.Create(name)
	if err != nil {
		return nil, err
	}
	w := bytesx.NewWriter(f)
	if err = fill(w); err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
	} else {
		err = f.Close()
	}
	if err != nil {
		s.fs.Remove(name)
		return nil, err
	}
	return w, nil
}

// openRun appends the run file name to the live runs (an empty one is
// deleted instead).
func (s *Shared) openRun(name string) error {
	run, err := openSharedRun(s.fs, name)
	if run != nil {
		s.runs = append(s.runs, run)
	}
	return err
}

// mergeRuns merges all current runs into a single sorted run, mirroring
// the map phase's spill merge (§5). The consumed pre-merge run files
// are deleted only after the merged run is durably written; on a
// mid-merge error the partially written merge file is closed and
// removed while the source runs stay intact on disk (their readers, if
// still open, are released by Close).
func (s *Shared) mergeRuns() error {
	name := fmt.Sprintf("%s/shared-merge%04d", s.prefix, s.spillSeq)
	s.spillSeq++
	if s.counters != nil {
		s.counters.AddExtra(CounterSharedMerges, 1)
	}
	span := s.tracer.Start(obs.KindSharedMerge, name, obs.Int("runs", int64(len(s.runs))))
	w, err := s.writeRun(name, func(w *bytesx.Writer) error {
		for r := s.minRun(); r != nil; r = s.minRun() {
			if err := w.WriteRecord(r.headKey, r.headVal); err != nil {
				return err
			}
			if err := r.advance(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
		return err
	}
	span.End(obs.Int("records", w.Records()), obs.Int("bytes", w.Bytes()))
	// The merge succeeded: the source runs are fully consumed (their
	// readers closed at EOF), so delete their files before swapping in
	// the merged run.
	if err := s.dropFinishedRuns(); err != nil {
		return err
	}
	return s.openRun(name)
}

// Close releases any open spill run readers and deletes their backing
// files — long jobs create and close many Shared instances, so leaving
// run files behind would leak disk linearly — and gives the emptied
// buffers to the next Shared. It ends the Shared's life: the views a
// PopMinKeyValues returned are invalid after it.
func (s *Shared) Close() error {
	var firstErr error
	for _, r := range s.runs {
		if err := r.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.fs.Remove(r.name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.runs = nil
	if s.box != nil {
		if cap(s.arena)+cap(s.spare)+cap(s.popBuf) <= maxPooledArenaBytes && cap(s.ents) <= maxPooledEntries {
			s.resetMem()
			// Views that would keep an outgrown arena, or the engine's
			// buffers, alive.
			clear(s.popVals[:cap(s.popVals)])
			clear(s.decodeKeys[:cap(s.decodeKeys)])
			*s.box = s.sharedBufs
			sharedPool.Put(s.box)
		}
		s.box, s.sharedBufs = nil, sharedBufs{}
	}
	return firstErr
}

// sharedRun is a buffered sequential cursor over one sorted spill file.
type sharedRun struct {
	r                *bytesx.Reader
	closer           io.Closer
	name             string
	headKey, headVal []byte
	done             bool
}

// openSharedRun opens a run and primes its head record. A run with no
// records is closed, deleted, and returned as nil; so is one whose first
// read fails, since no Shared will ever own it.
func openSharedRun(fs iokit.FS, name string) (*sharedRun, error) {
	f, err := fs.Open(name)
	if err != nil {
		fs.Remove(name)
		return nil, err
	}
	run := &sharedRun{r: bytesx.NewReader(f), closer: f, name: name}
	if err := run.advance(); err != nil {
		fs.Remove(name)
		return nil, err
	}
	if run.done {
		return nil, fs.Remove(name)
	}
	return run, nil
}

// advance reads the next head record, closing the reader on every
// terminal path: EOF and read errors alike (an error here is fatal for
// the run, so holding the file open would leak the handle).
func (r *sharedRun) advance() error {
	k, v, err := r.r.ReadRecord()
	if errors.Is(err, io.EOF) {
		r.done = true
		return r.close()
	}
	if err != nil {
		r.close()
		return err
	}
	r.headKey = append(r.headKey[:0], k...)
	r.headVal = append(r.headVal[:0], v...)
	return nil
}

func (r *sharedRun) close() error {
	if r.closer == nil {
		return nil
	}
	c := r.closer
	r.closer = nil
	return c.Close()
}
