package mr

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bytesx"
)

// Steady-state buffer pools for the map-output hot path. A map task's
// lifetime churns through a collect arena, entry index slices and one
// copy buffer per shuffle fetch (its record writers and readers come
// from bytesx's pools); pooling them
// makes a steady-state task allocate O(1) per spill instead of
// O(records). Pools never affect output bytes — they only recycle
// scratch memory, and test binaries poison it on the way back in (see
// poisonOnPut) so a retained view cannot go unnoticed. Wire frames
// (frameBufPool below) are copied out before release.
//
// The sync.Pools carry buffers from one run to the next, and only as
// far as the garbage collector lets them: a pooled buffer nobody took
// for two collections is freed. Within a run the multi-megabyte arenas
// and entry slices therefore travel through the run's own runBuffers
// instead, so what a job allocates for them does not depend on where a
// collection happens to fall between two of its map tasks.

var (
	arenaPool   sync.Pool // *[]byte, collect arenas (cap ~SortBufferBytes)
	entriesPool sync.Pool // *[]bufEntry, collect/bucket index slices
	copyBufPool sync.Pool // *[]byte, fixed-size shuffle copy buffers
)

// copyBufSize is the pooled shuffle copy-buffer size, matching the
// record streams' 64 KiB buffering.
const copyBufSize = 64 << 10

// runBuffers is what one Run owns: the arenas and entry slices its
// finished map tasks hand to the ones that start next — at most one
// arena and two entry slices (live index and scatter target) per
// concurrently running task. Run drains it into the sync.Pools when the
// job ends.
type runBuffers struct {
	arenas  freeList[byte]
	entries freeList[bufEntry]
}

func newRunBuffers(parallelism int) *runBuffers {
	return &runBuffers{
		arenas:  freeList[byte]{limit: parallelism, pool: &arenaPool, poison: bytesx.Poison},
		entries: freeList[bufEntry]{limit: 2 * parallelism, pool: &entriesPool, poison: poisonEntries},
	}
}

// outsideRun serves a task executed outside a Run (ExecMapTask): it
// keeps nothing, so every get and put goes to the cross-run pools.
var outsideRun = newRunBuffers(0)

func (r *runBuffers) drain() {
	r.arenas.drain()
	r.entries.drain()
}

// freeList hands out empty slices kept for their capacity: from its own
// bounded stack first, then from the cross-run sync.Pool behind it.
type freeList[T any] struct {
	limit  int
	pool   *sync.Pool // *[]T
	poison func([]T)  // what put overwrites a slice with in test binaries
	mu     sync.Mutex
	items  [][]T
}

// get returns an empty slice, or nil when neither the list nor the pool
// has one (the caller grows it).
func (f *freeList[T]) get() []T {
	f.mu.Lock()
	if n := len(f.items); n > 0 {
		s := f.items[n-1]
		f.items = f.items[:n-1]
		f.mu.Unlock()
		return s
	}
	f.mu.Unlock()
	if p, ok := f.pool.Get().(*[]T); ok {
		return (*p)[:0]
	}
	return nil
}

// put takes s back: onto the list while it has room, else into the pool.
func (f *freeList[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	f.poison(s)
	s = s[:0]
	f.mu.Lock()
	room := len(f.items) < f.limit
	if room {
		f.items = append(f.items, s)
	}
	f.mu.Unlock()
	if !room {
		f.pool.Put(&s)
	}
}

// drain moves the list's slices to the pool.
func (f *freeList[T]) drain() {
	f.mu.Lock()
	items := f.items
	f.items = nil
	f.mu.Unlock()
	for _, s := range items {
		f.pool.Put(&s)
	}
}

// getCopyBuf returns a 64 KiB scratch buffer for io.CopyBuffer on the
// shuffle fetch path and for the checksum framing.
func getCopyBuf() []byte {
	if p, ok := copyBufPool.Get().(*[]byte); ok {
		return *p
	}
	return make([]byte, copyBufSize)
}

func putCopyBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	bytesx.Poison(b)
	copyBufPool.Put(&b)
}

// Every put scribbles over the buffer it takes back, in test binaries
// only, so a view kept past the put reads poison — and breaks an output
// digest or an index bound — instead of silently aliasing the next
// owner's bytes: bytesx.Poison for bytes, poisonEntries for entries.
var poisonOnPut = testing.Testing()

// poisonEntry's negative offsets slice the arena out of range.
var poisonEntry = bufEntry{prefix: math.MaxUint64, partition: -1, keyOff: -1, keyLen: -1, valueLen: -1}

// poisonEntries overwrites es's whole capacity with poisonEntry in test
// binaries.
func poisonEntries(es []bufEntry) {
	if poisonOnPut {
		es = es[:cap(es)]
		for i := range es {
			es[i] = poisonEntry
		}
	}
}

// frameBufPool recycles the transport's length-prefixed frame buffers
// (request names, error strings) so every fetch request stops paying
// a per-frame allocation. Frames are small (≤ maxErrFrame) and their
// contents are always copied into a string before release.
var frameBufPool sync.Pool // *[]byte

func getFrameBuf(n int) []byte {
	if p, ok := frameBufPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func putFrameBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	frameBufPool.Put(&b)
}
