package monoid

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/bytesx"
	"repro/internal/mr"
)

// FoldTable is a key→state table over one monoid, seen without its
// state type. Keys are compared as raw bytes. The transformed map-side
// combiner and in-mapper combining fill one and Emit it whole; a reduce
// task folds into one group by group and finalizes its states one key at
// a time, smallest first, through the reducer's final (else Emit): that
// is how it drains what earlier key groups contributed to later keys.
//
// Begin keeps the incoming group's own state outside the table when the
// table does not hold its key: a group of plain values costs no hash
// probe and no entry. Absorb, AbsorbShared and Emit work on that local
// state as on any other; it counts as the table's smallest key.
//
// The table charges what a Shared staging the same values would: every
// key's bytes once while it holds a state, plus every absorbed value
// (the local state's key is not charged). Measure replaces that charge
// with the states' encoded size, which it takes from the monoid's Size
// when it is a Sizer and counts through Emit otherwise.
type FoldTable interface {
	// Absorb folds value into key's state.
	Absorb(key, value []byte) error
	// AbsorbShared absorbs value into the state of key and then of each
	// key of others — one EagerSH record, in the order a Shared would
	// hand it to the reducer.
	AbsorbShared(key []byte, others [][]byte, value []byte) error
	// Emit hands every state to the monoid's Emit, in ascending raw key
	// order, and empties the table. The keys out sees are views valid
	// only for the Emit call. The local key stays the current group's,
	// to be finalized from what is absorbed into it later.
	Emit(out mr.Emitter) error
	// Begin starts the group of key, which must sort below every key
	// the table holds or equal the smallest. Unless the table holds
	// key, its values go into the local state until it is finalized.
	Begin(key []byte)
	// Min returns the smallest key holding a state. The view is valid
	// until the table next changes.
	Min() ([]byte, bool)
	// FinalizeMin removes the smallest key's state, which Min has
	// reported, and renders it to out.
	FinalizeMin(out mr.Emitter) error
	// Charge reports the bytes the live states are charged for.
	Charge() int
	// Measure counts the bytes Emit would write for the live states
	// (each key once), makes that the charge and returns it.
	Measure() (int, error)
	// Release empties the table and gives it back to its pool; the
	// table must not be used after it.
	Release()
}

// foldTable is the FoldTable over Monoid[S]: an open-addressed index
// over keys copied into one arena, with one state per key. The first
// ordered use (Begin, Min) adds a min-heap over the live entries on
// their 8-byte big-endian key prefix, so a table that is only emitted
// whole never keeps one. A finalized entry leaves the index at once but
// stays dead in the arena until the table empties, or until dead key
// bytes outweigh live ones and the live keys are compacted into a fresh
// arena. Emptied tables are pooled per Combiner, Reducer or InMapper,
// so of the many short-lived instances a job creates only the first few
// grow one.
type foldTable[S any] struct {
	m     Monoid[S]
	final func(key []byte, s S, out mr.Emitter) error
	pool  *sync.Pool

	keys   []byte       // every key's bytes, back to back
	ents   []tableEntry // per key, in insertion order
	states []S          // states[i] is ents[i]'s state
	slots  []int32      // open-addressed index of live entries: entry+1, 0 = empty
	order  []int32      // Emit's sort scratch
	heap   []heapItem   // live entries, smallest key first; nil until first ordered use
	dead   int          // key bytes of finalized entries still in keys

	local    tableEntry // the charge of the state Begin keeps outside the table
	localS   S
	cur      []byte // local's key
	hasLocal bool

	charge int
}

// tableEntry addresses one key, n bytes at off in keys, and records
// what its state is charged: its measured size, plus what it absorbed
// since it was measured (dirty). It is kept small: the map-side roles
// hold one per distinct key of a spill run.
type tableEntry struct {
	charge int
	hash   uint32 // the low half of the key's hash
	off, n int32  // off < 0 once the state is finalized
	dirty  bool
}

// heapItem is a live entry in the heap, with its key's prefix.
type heapItem struct {
	prefix uint64
	i      int32
}

// tableSeed keys every fold table's index.
var tableSeed = maphash.MakeSeed()

// poisonOnPut makes Release and compaction overwrite the key arena they
// give back, so a key view kept past Emit, Release or a compaction reads
// poison instead of silently aliasing the next owner's keys. On in test
// binaries only.
var poisonOnPut = testing.Testing()

const poisonByte = 0xDB

// errKeysTooLarge refuses keys past what an entry can address.
var errKeysTooLarge = errors.New("monoid: fold table keys exceed 2 GiB")

// getTable returns an empty table over m finalizing through final, from
// pool when it has one.
func getTable[S any](m Monoid[S], final func([]byte, S, mr.Emitter) error, pool *sync.Pool) *foldTable[S] {
	if t, ok := pool.Get().(*foldTable[S]); ok {
		return t
	}
	return &foldTable[S]{m: m, final: final, pool: pool, slots: make([]int32, 64)}
}

// keyPrefix is key's first 8 bytes, big-endian and zero-padded: prefixes
// order as their keys do, up to ties.
func keyPrefix(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

func (t *foldTable[S]) key(i int32) []byte {
	e := &t.ents[i]
	return t.keys[e.off : e.off+e.n]
}

// compare orders heap items by key, comparing key bytes only on a
// prefix tie.
func (t *foldTable[S]) compare(a, b heapItem) int {
	if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
		return c
	}
	return bytes.Compare(t.key(a.i), t.key(b.i))
}

// state returns the index of key's entry, inserting one with the
// identity state when key is new.
func (t *foldTable[S]) state(key []byte) (int32, error) {
	h := uint32(maphash.Bytes(tableSeed, key))
	mask := uint32(len(t.slots) - 1)
	slot := h & mask
	for ; t.slots[slot] != 0; slot = (slot + 1) & mask {
		if i := t.slots[slot] - 1; t.ents[i].hash == h && bytes.Equal(t.key(i), key) {
			return i, nil
		}
	}
	if len(t.keys)+len(key) > math.MaxInt32 {
		return 0, errKeysTooLarge
	}
	i := int32(len(t.ents))
	t.ents = append(t.ents, tableEntry{charge: len(key), hash: h, off: int32(len(t.keys)), n: int32(len(key))})
	t.keys = append(t.keys, key...)
	t.states = append(t.states, t.m.Identity())
	t.charge += len(key)
	t.slots[slot] = i + 1
	if t.heap != nil {
		t.heap = append(t.heap, heapItem{keyPrefix(key), i})
		t.up(len(t.heap) - 1)
	}
	if 2*len(t.ents) > len(t.slots) {
		t.index(2 * len(t.slots))
	}
	return i, nil
}

// index rebuilds the index over the live entries, in n slots.
func (t *foldTable[S]) index(n int) {
	if n == len(t.slots) {
		clear(t.slots)
	} else {
		t.slots = make([]int32, n)
	}
	mask := uint32(n - 1)
	for i, e := range t.ents {
		if e.off < 0 {
			continue
		}
		slot := e.hash & mask
		for t.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.slots[slot] = int32(i) + 1
	}
}

// unindex removes entry i from the index, moving the later entries of
// its probe run back over the hole so that every lookup still finds its
// key before an empty slot.
func (t *foldTable[S]) unindex(i int32) {
	mask := uint32(len(t.slots) - 1)
	hole := t.ents[i].hash & mask
	for t.slots[hole] != i+1 {
		hole = (hole + 1) & mask
	}
	for next := (hole + 1) & mask; t.slots[next] != 0; next = (next + 1) & mask {
		home := t.ents[t.slots[next]-1].hash & mask
		if (next-home)&mask >= (next-hole)&mask {
			t.slots[hole] = t.slots[next]
			hole = next
		}
	}
	t.slots[hole] = 0
}

// Absorb implements FoldTable: into the local state when key is its,
// else into key's entry.
func (t *foldTable[S]) Absorb(key, value []byte) error {
	e, s := &t.local, &t.localS
	if !t.hasLocal || !bytes.Equal(key, t.cur) {
		i, err := t.state(key)
		if err != nil {
			return err
		}
		e, s = &t.ents[i], &t.states[i]
	}
	var err error
	*s, err = t.m.Absorb(*s, value)
	e.charge += len(value)
	e.dirty = true
	t.charge += len(value)
	return err
}

// AbsorbShared implements FoldTable.
func (t *foldTable[S]) AbsorbShared(key []byte, others [][]byte, value []byte) error {
	if err := t.Absorb(key, value); err != nil {
		return err
	}
	for _, k := range others {
		if err := t.Absorb(k, value); err != nil {
			return err
		}
	}
	return nil
}

// Begin implements FoldTable.
func (t *foldTable[S]) Begin(key []byte) {
	if min, ok := t.Min(); ok && bytes.Equal(min, key) {
		return
	}
	t.cur = append(t.cur[:0], key...)
	t.local, t.localS, t.hasLocal = tableEntry{}, t.m.Identity(), true
}

// heapify builds the heap over the live entries. The table's first
// ordered use calls it; from then on every new entry joins the heap.
func (t *foldTable[S]) heapify() {
	t.heap = slices.Grow(t.heap[:0], 1) // non-nil from now on
	for i, e := range t.ents {
		if e.off >= 0 {
			t.heap = append(t.heap, heapItem{keyPrefix(t.key(int32(i))), int32(i)})
		}
	}
	for j := len(t.heap)/2 - 1; j >= 0; j-- {
		t.down(j)
	}
}

func (t *foldTable[S]) up(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if t.compare(t.heap[j], t.heap[parent]) >= 0 {
			return
		}
		t.heap[j], t.heap[parent] = t.heap[parent], t.heap[j]
		j = parent
	}
}

func (t *foldTable[S]) down(j int) {
	n := len(t.heap)
	for {
		c := 2*j + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && t.compare(t.heap[r], t.heap[c]) < 0 {
			c = r
		}
		if t.compare(t.heap[c], t.heap[j]) >= 0 {
			return
		}
		t.heap[j], t.heap[c] = t.heap[c], t.heap[j]
		j = c
	}
}

// Min implements FoldTable.
func (t *foldTable[S]) Min() ([]byte, bool) {
	if t.hasLocal {
		return t.cur, true
	}
	if t.heap == nil {
		t.heapify()
	}
	if len(t.heap) == 0 {
		return nil, false
	}
	return t.key(t.heap[0].i), true
}

// FinalizeMin implements FoldTable.
func (t *foldTable[S]) FinalizeMin(out mr.Emitter) error {
	var zero S
	if t.hasLocal {
		t.hasLocal = false
		t.charge -= t.local.charge
		err := render(t.m, t.final, t.cur, t.localS, out)
		t.localS = zero
		t.settle()
		return err
	}
	i := t.heap[0].i
	n := len(t.heap) - 1
	t.heap[0] = t.heap[n]
	t.heap = t.heap[:n]
	t.down(0)
	e := &t.ents[i]
	t.charge -= e.charge
	err := render(t.m, t.final, t.key(i), t.states[i], out)
	t.unindex(i)
	t.states[i] = zero
	t.dead += int(e.n)
	e.off = -1
	t.settle()
	return err
}

// settle frees the arena finalized entries hold: all of it once the
// table holds no state, else by compaction once dead key bytes (and one
// per dead entry, so that empty keys count) outweigh live ones.
func (t *foldTable[S]) settle() {
	if len(t.heap) == 0 && !t.hasLocal {
		// Every entry is finalized, so the index is already empty.
		t.keys, t.ents, t.states, t.dead = t.keys[:0], t.ents[:0], t.states[:0], 0
		return
	}
	if dead := t.dead + len(t.ents) - len(t.heap); 2*dead > len(t.keys)+len(t.ents) {
		t.compact()
	}
}

// compact copies the live keys into a fresh arena, drops the dead
// entries and rebuilds the index and the heap.
func (t *foldTable[S]) compact() {
	keys := make([]byte, 0, len(t.keys)-t.dead)
	j := 0
	for i, e := range t.ents {
		if e.off < 0 {
			continue
		}
		k := t.keys[e.off : e.off+e.n]
		e.off = int32(len(keys))
		keys = append(keys, k...)
		t.ents[j], t.states[j] = e, t.states[i]
		j++
	}
	clear(t.states[j:])
	poison(t.keys)
	t.keys, t.ents, t.states, t.dead = keys, t.ents[:j], t.states[:j], 0
	t.heapify()
	t.index(max(64, 2<<bits.Len(uint(j)))) // a power of two over 2j
}

// poison overwrites an arena given back, in test binaries.
func poison(keys []byte) {
	if poisonOnPut {
		keys = keys[:cap(keys)]
		for i := range keys {
			keys[i] = poisonByte
		}
	}
}

// Charge implements FoldTable.
func (t *foldTable[S]) Charge() int { return t.charge }

// byteCounter is the Emitter Measure counts a state's encoding with.
type byteCounter struct{ n int }

// Emit implements mr.Emitter.
func (c *byteCounter) Emit(_, v []byte) error {
	c.n += len(v)
	return nil
}

// Measure implements FoldTable. A state not absorbed into since it was
// last measured still encodes in what was measured then, so only the
// dirty ones are sized, or emitted when the monoid is not a Sizer.
func (t *foldTable[S]) Measure() (int, error) {
	var c byteCounter
	sizer, sized := t.m.(Sizer[S])
	measure := func(key []byte, e *tableEntry, s S) error {
		var err error
		if sized {
			c.n = len(key) + sizer.Size(s)
		} else {
			c.n = len(key)
			err = t.m.Emit(key, s, &c)
		}
		t.charge += c.n - e.charge
		e.charge, e.dirty = c.n, false
		return err
	}
	if t.hasLocal && t.local.dirty {
		if err := measure(t.cur, &t.local, t.localS); err != nil {
			return 0, err
		}
	}
	for i := range t.ents {
		if e := &t.ents[i]; e.off >= 0 && e.dirty {
			if err := measure(t.key(int32(i)), e, t.states[i]); err != nil {
				return 0, err
			}
		}
	}
	return t.charge, nil
}

// Emit implements FoldTable.
func (t *foldTable[S]) Emit(out mr.Emitter) error {
	var err error
	if t.hasLocal {
		err = t.m.Emit(t.cur, t.localS, out)
		t.local, t.localS = tableEntry{}, t.m.Identity()
	}
	order := t.order[:0]
	for i, e := range t.ents {
		if e.off >= 0 {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(t.key(a), t.key(b)) })
	t.order = order
	for k := 0; err == nil && k < len(order); k++ {
		err = t.m.Emit(t.key(order[k]), t.states[order[k]], out)
	}
	t.reset()
	return err
}

// reset empties the table of entries, keeping its buffers. States are
// zeroed so the table keeps nothing they point to alive.
func (t *foldTable[S]) reset() {
	t.keys, t.ents = t.keys[:0], t.ents[:0]
	clear(t.states)
	t.states = t.states[:0]
	clear(t.slots)
	t.heap = t.heap[:0]
	t.dead, t.charge = 0, 0
}

// Release implements FoldTable. A table past the pooling bounds Shared
// applies (bytesx.MaxPooledEntries, bytesx.MaxPooledBytes) is left to
// the garbage collector.
func (t *foldTable[S]) Release() {
	t.reset()
	var zero S
	t.local, t.localS, t.hasLocal = tableEntry{}, zero, false
	poison(t.keys)
	n := uintptr(cap(t.keys)) + uintptr(cap(t.ents))*unsafe.Sizeof(tableEntry{}) +
		uintptr(cap(t.states))*unsafe.Sizeof(zero) + uintptr(len(t.slots)+cap(t.order))*4 +
		uintptr(cap(t.heap))*unsafe.Sizeof(heapItem{})
	if cap(t.ents) <= bytesx.MaxPooledEntries && n <= bytesx.MaxPooledBytes {
		t.pool.Put(t)
	}
}
