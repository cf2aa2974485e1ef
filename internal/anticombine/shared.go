package anticombine

import (
	"errors"
	"math"
	"sync"
	"unsafe"

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
// plus a hash index from key to values — a bytesx.KeyIndex, and a value
// list per key id. When the memory budget is exceeded, the content is
// written in sorted key order to a spill run, a CRC32C-framed mr record
// file (mirroring the map phase's sort-and-spill), and the runs are
// merged into one when they exceed the merge threshold; the engine's
// merge heap (mr.RunMerger) reads them back. Reads are strictly in
// ascending key order — PopMinKeyValues — so spilled runs
// are consumed by buffered sequential reads, never random access.
//
// Values are stored in fixed 64 KiB blocks, never copied to grow, and
// addressed by (block, offset, length); blocks, value lists and the key
// index are all recycled, so a warm Shared adds and pops without
// allocating. Dead value bytes are reclaimed wholesale when memory
// empties (every spill, and whenever the reducer catches up) and by
// compaction when the blocks are mostly dead. Close hands the blocks to
// blockPool and the rest of its buffers to the next Shared (see
// sharedBufs), so of the many short-lived instances a job creates — one
// per transformed combiner — only the first few grow them.
//
// With a combiner attached, values are combined on insert so each key
// keeps (nearly) a single record ("Using Combine in the Reduce Phase",
// §5), which in the paper's Table 2 keeps Shared entirely in memory.
type Shared struct {
	cmp      bytesx.Compare // KeyCompare, or Bytes for raw order
	groupCmp bytesx.Compare

	sharedBufs
	box    *sharedBufs // where Close leaves the buffers for the next Shared
	mem    int         // live key+value bytes: the quantity memLimit bounds
	stored int         // bytes stored since the blocks last emptied, live and dead

	memLimit int
	runs     runSet // the spilled runs

	combiner   mr.Reducer
	combineOut mr.Emitter // stores the combiner's output and appends it to combined
	combineIn  sliceIter
}

// sharedBufs is the memory a Shared works in besides its blocks. It
// outlives the Shared: Close empties it and puts it in sharedPool, and
// the next Shared starts with its capacity — key index, value lists and
// pop buffers already as large as the last one needed.
type sharedBufs struct {
	keys bytesx.KeyIndex
	ents []sharedEntry // by key id; an entry keeps its value list's capacity across reuse

	// blocks hold the value bytes, live and dead; a block's
	// length is how far it is filled, and the last one takes new bytes.
	blocks [][]byte
	// emptied are blocks of blockSize whose bytes are dead but intact: a
	// view handed out before they emptied stays readable until the next
	// Add takes one. spareBlocks is compaction's second block list.
	emptied, spareBlocks [][]byte

	combined []blockSpan // the value list a combine is building
	order    []int32     // spill's key order

	// PopMinKeyValues' result storage: the group key and spilled values
	// in popBuf, the value views in popVals.
	popBuf  []byte
	popVals [][]byte

	// decodeKeys is not Shared's own: it is the AntiReducer's scratch for
	// an EagerSH record's keys, pooled with the buffers they are added to.
	decodeKeys [][]byte
}

var sharedPool sync.Pool // *sharedBufs

// blockSize is the size of the blocks Shared stores bytes in. A key or
// value longer than a block gets an exact-size block of its own, which
// is never pooled.
const blockSize = 64 << 10

// block is what blockPool holds: a pointer to an array, so that putting
// one back costs no allocation.
type block [blockSize]byte

// blockPool holds the blocks closed Shareds gave back, for any Shared to
// take: a reduce task's Shared of tens of megabytes leaves its blocks to
// the next task, a combiner-sized one takes a single block.
var blockPool sync.Pool // *block

// maxSpan is the longest key or value a span can address.
const maxSpan = math.MaxInt32

// combineSink is the Emitter combineEntry hands the combiner.
type combineSink struct{ s *Shared }

// Emit implements mr.Emitter.
func (c combineSink) Emit(_, v []byte) error { return c.s.addCombined(v) }

// blockSpan addresses one key or value: n bytes at off in blocks[blk].
type blockSpan struct{ blk, off, n int32 }

// sharedEntry is one distinct in-memory key's values in arrival order.
// combinedLen remembers the value count the last combine produced, so
// keys whose values the combiner cannot shrink (e.g. distinct-query
// lists) are recombined only after the list doubles — amortized linear
// instead of quadratic.
type sharedEntry struct {
	vals        []blockSpan
	combinedLen int32
}

// SharedConfig configures a Shared instance.
type SharedConfig struct {
	// KeyCompare orders keys; nil = raw byte order.
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

// sharedLimits applies the defaults of a memory limit and a merge factor
// for spill runs: 1 MiB, and 10 runs.
func sharedLimits(memLimit, mergeFactor int) (int, int) {
	if memLimit <= 0 {
		memLimit = 1 << 20
	}
	if mergeFactor < 2 {
		mergeFactor = 10
	}
	return memLimit, mergeFactor
}

// init makes s an empty Shared, on pooled buffers when there are any.
func (s *Shared) init(cfg SharedConfig) {
	cmp := cfg.KeyCompare
	if cmp == nil {
		cmp = bytesx.Bytes
	}
	if cfg.GroupCompare == nil {
		cfg.GroupCompare = cmp
	}
	cfg.MemLimitBytes, cfg.MergeFactor = sharedLimits(cfg.MemLimitBytes, cfg.MergeFactor)
	*s = Shared{
		cmp:      cmp,
		groupCmp: cfg.GroupCompare,
		memLimit: cfg.MemLimitBytes,
		runs: runSet{
			RunMerger:   mr.NewRunMerger(cfg.FS, cfg.KeyCompare),
			fs:          cfg.FS,
			mergeFactor: cfg.MergeFactor,
			counters:    cfg.Counters,
			tracer:      cfg.Tracer,
		},
		combiner: cfg.Combiner,
	}
	if s.box, _ = sharedPool.Get().(*sharedBufs); s.box != nil {
		s.sharedBufs = *s.box
	} else {
		s.box = new(sharedBufs)
	}
	s.keys.Init(cfg.KeyCompare)
	if s.combiner != nil {
		s.combineOut = combineSink{s}
	}
}

func (s *Shared) view(sp blockSpan) []byte { return s.blocks[sp.blk][sp.off : sp.off+sp.n] }

// store copies b into the last block, or into a new one when it does not
// fit, and returns where it went.
func (s *Shared) store(b []byte) blockSpan {
	last := len(s.blocks) - 1
	if last < 0 || len(s.blocks[last])+len(b) > cap(s.blocks[last]) {
		s.blocks = append(s.blocks, s.newBlock(len(b)))
		last++
	}
	off := len(s.blocks[last])
	s.blocks[last] = append(s.blocks[last], b...)
	s.stored += len(b)
	return blockSpan{int32(last), int32(off), int32(len(b))}
}

// newBlock returns an empty block with room for n bytes: an emptied
// block, a pooled one, or a new one.
func (s *Shared) newBlock(n int) []byte {
	if n > blockSize {
		return make([]byte, 0, n)
	}
	if k := len(s.emptied) - 1; k >= 0 {
		b := s.emptied[k]
		s.emptied[k], s.emptied = nil, s.emptied[:k]
		return b
	}
	if p, ok := blockPool.Get().(*block); ok {
		return p[:0]
	}
	return make([]byte, 0, blockSize)
}

// retire drops the blocks of list — those of blockSize go to the emptied
// list with their bytes intact, exact-size ones to the garbage collector
// — and returns list emptied.
func (s *Shared) retire(list [][]byte) [][]byte {
	for i, b := range list {
		if cap(b) == blockSize {
			s.emptied = append(s.emptied, b[:0])
		}
		list[i] = nil
	}
	return list[:0]
}

// compactSlack is how far the stored bytes may outgrow twice the live
// ones before Add compacts them: small enough that a Shared that never
// empties stays within a constant factor of memLimit, large enough that
// the copy is amortized over at least as many dead bytes as it moves.
const compactSlack = 64 << 10

// errSpanTooLarge refuses a key or value a span cannot address.
var errSpanTooLarge = errors.New("anticombine: Shared cannot hold a key or value of 2 GiB or more")

// Add inserts one decoded key/value pair. Both slices are copied. It
// invalidates the views a previous PopMinKeyValues returned.
func (s *Shared) Add(key, value []byte) error {
	if len(key) > maxSpan || len(value) > maxSpan {
		return errSpanTooLarge
	}
	if s.stored > 2*s.mem+compactSlack {
		s.compact()
	}
	id, added, err := s.keys.Insert(key)
	if err != nil {
		return err
	}
	if added {
		if int(id) == len(s.ents) {
			s.ents = append(s.ents, sharedEntry{})
		}
		s.ents[id] = sharedEntry{vals: s.ents[id].vals[:0]}
		s.mem += len(key)
	}
	e := &s.ents[id]
	e.vals = append(e.vals, s.store(value))
	s.mem += len(value)
	if s.combiner != nil && len(e.vals) >= combineBatch && len(e.vals) >= 2*int(e.combinedLen) {
		if err := s.combineEntry(s.keys.Key(id), e); err != nil {
			return err
		}
	}
	if s.mem > s.memLimit {
		return s.spill()
	}
	return nil
}

// resetMem drops the whole in-memory part, keeping every buffer.
func (s *Shared) resetMem() {
	s.keys.Reset()
	s.mem = 0
	s.blocks, s.stored = s.retire(s.blocks), 0
}

// compact copies the live values into fresh blocks and empties the old
// ones. An exact-size block holds one value, live or dead, so a live one
// moves to the new list uncopied.
func (s *Shared) compact() {
	old := s.blocks
	s.blocks, s.stored = s.spareBlocks, 0
	restore := func(b []byte) blockSpan {
		if len(b) <= blockSize {
			return s.store(b)
		}
		s.blocks = append(s.blocks, b)
		s.stored += len(b)
		return blockSpan{int32(len(s.blocks) - 1), 0, int32(len(b))}
	}
	for id := range s.ents {
		if !s.keys.Live(int32(id)) {
			continue
		}
		e := &s.ents[id]
		for i, v := range e.vals {
			e.vals[i] = restore(old[v.blk][v.off : v.off+v.n])
		}
	}
	s.spareBlocks = s.retire(old)
}

// combineEntry folds an entry's values into the combiner's output,
// keeping (usually) a single record per key. The combiner reads views of
// the old values while its output is stored behind them.
func (s *Shared) combineEntry(key []byte, e *sharedEntry) error {
	old := s.popVals[:0]
	for _, v := range e.vals {
		s.mem -= int(v.n)
		old = append(old, s.view(v))
	}
	s.popVals, s.combineIn = old, sliceIter{vals: old}
	s.combined = s.combined[:0]
	if err := s.combiner.Reduce(key, &s.combineIn, s.combineOut); err != nil {
		return err
	}
	if len(s.combined) == 0 {
		return errors.New("anticombine: combiner emitted no output for Shared insert")
	}
	// Copied, not swapped: the slot keeps the capacity its value list has
	// grown to, for this key's next batch and for the slot's next key.
	e.vals = append(e.vals[:0], s.combined...)
	e.combinedLen = int32(len(e.vals))
	return nil
}

// addCombined takes one value of the combiner's output.
func (s *Shared) addCombined(v []byte) error {
	if len(v) > maxSpan {
		return errSpanTooLarge
	}
	s.combined = append(s.combined, s.store(v))
	s.mem += len(v)
	return nil
}

// Empty reports whether no keys remain, in memory or spilled.
func (s *Shared) Empty() bool { return s.keys.Len() == 0 && s.runs.Len() == 0 }

// peekMin returns the smallest key present without copying it. The
// slice is only valid until the next mutation.
func (s *Shared) peekMin() ([]byte, bool) {
	rk, ok := s.runs.Peek()
	if id, held := s.keys.Min(); held {
		if k := s.keys.Key(id); !ok || s.cmp(k, rk) <= 0 {
			return k, true
		}
	}
	return rk, ok
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
		for id, held := s.keys.Min(); held; id, held = s.keys.Min() {
			k := s.keys.Key(id)
			if s.cmp(k, cur) != 0 {
				break
			}
			s.mem -= len(k)
			for _, v := range s.ents[id].vals {
				s.mem -= int(v.n)
				values = append(values, s.view(v))
			}
			s.keys.PopMin()
		}
		// The merger reuses its buffers, so run values are copied.
		for rk, ok := s.runs.Peek(); ok && s.cmp(rk, cur) == 0; rk, ok = s.runs.Peek() {
			_, v, err := s.runs.Next()
			if err != nil {
				return nil, nil, err
			}
			off := len(buf)
			buf = append(buf, v...)
			values = append(values, buf[off:len(buf):len(buf)])
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
	if s.keys.Len() == 0 {
		// Every stored byte is dead, and the key index has emptied itself.
		// The views just handed out stay intact until the next Add writes
		// over them.
		s.blocks, s.stored, s.mem = s.retire(s.blocks), 0, 0
	}
	return key, values, nil
}

// Spills reports how many times Shared spilled to disk.
func (s *Shared) Spills() int { return int(s.runs.spills) }

// spill writes the in-memory content to a new sorted run, then merges
// runs if they exceed the merge factor.
func (s *Shared) spill() error {
	err := s.runs.spill(func(w *mr.RecordWriter) error {
		s.order = s.keys.Sorted(s.order[:0])
		for _, id := range s.order {
			key := s.keys.Key(id)
			for _, v := range s.ents[id].vals {
				if err := w.Write(key, s.view(v)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	// Written or lost, the in-memory content is gone.
	s.resetMem()
	return err
}

// Close releases any open spill run readers and deletes their backing
// files — long jobs create and close many Shared instances, so leaving
// run files behind would leak disk linearly — puts its blocks in
// blockPool and gives the emptied buffers to the next Shared. It ends the
// Shared's life: the views a PopMinKeyValues returned are invalid after
// it.
func (s *Shared) Close() error {
	err := s.runs.Close()
	if s.box != nil {
		s.resetMem()
		for i, b := range s.emptied {
			putBlock(b)
			s.emptied[i] = nil
		}
		s.emptied = s.emptied[:0]
		s.keys.Release()
		if s.poolable() {
			// Views that would keep a block, or the engine's buffers, alive.
			clear(s.popVals[:cap(s.popVals)])
			clear(s.decodeKeys[:cap(s.decodeKeys)])
			*s.box = s.sharedBufs
			sharedPool.Put(s.box)
		}
		s.box, s.sharedBufs = nil, sharedBufs{}
	}
	return err
}

// putBlock gives an emptied block of blockSize to blockPool.
func putBlock(b []byte) {
	bytesx.Poison(b)
	blockPool.Put((*block)(b[:blockSize]))
}

// poolable reports whether the buffers are within the bounds for
// pooling. Besides the entry slots, the byte bound counts the key
// index, every slot's value-list capacity and the pop buffers, so a few
// slots with one huge list are dropped too.
func (s *Shared) poolable() bool {
	ids, n := s.keys.Footprint()
	if max(ids, cap(s.ents)) > bytesx.MaxPooledEntries {
		return false
	}
	spans := 0
	for i := range s.ents {
		spans += cap(s.ents[i].vals)
	}
	n += uintptr(spans)*unsafe.Sizeof(blockSpan{}) + uintptr(cap(s.order))*4 +
		uintptr(cap(s.popBuf)) + uintptr(cap(s.popVals))*unsafe.Sizeof([]byte(nil))
	return n <= bytesx.MaxPooledBytes
}
