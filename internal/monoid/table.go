package monoid

import (
	"bytes"
	"errors"
	"hash/maphash"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/bytesx"
	"repro/internal/mr"
)

// FoldTable is a key→state table over one monoid, seen without its
// state type: what the transformed map-side combiner and in-mapper
// combining fold records into. Keys are compared as raw bytes.
type FoldTable interface {
	// Absorb folds value into key's state.
	Absorb(key, value []byte) error
	// AbsorbShared absorbs value once and merges the result into the
	// state of key and of every key of others — one EagerSH record.
	AbsorbShared(key []byte, others [][]byte, value []byte) error
	// Emit hands every state to the monoid's Emit, in ascending raw key
	// order, and empties the table. The keys out sees are views valid
	// only for the Emit call.
	Emit(out mr.Emitter) error
	// Release empties the table and gives it back to its pool; the
	// table must not be used after it.
	Release()
}

// foldTable is the FoldTable over Monoid[S]: an open-addressed index
// over keys copied into one arena, with one state per key. Emptied
// tables are pooled per Combiner (or InMapper), so of the many
// short-lived combiner instances a job creates only the first few grow
// one.
type foldTable[S any] struct {
	m      Monoid[S]
	pool   *sync.Pool
	keys   []byte       // every key's bytes, back to back
	ents   []tableEntry // per key, in insertion order
	states []S          // states[i] is ents[i]'s state
	slots  []int32      // open-addressed index: entry+1, 0 = empty
	order  []int32      // Emit's sort scratch
}

// tableEntry addresses one key: n bytes at off in keys.
type tableEntry struct {
	hash   uint64
	off, n int32
}

// tableSeed keys every fold table's index.
var tableSeed = maphash.MakeSeed()

// poisonOnPut makes Release overwrite a pooled table's key bytes, so a
// key view kept past Emit reads poison instead of silently aliasing the
// next owner's keys. On in test binaries only.
var poisonOnPut = testing.Testing()

const poisonByte = 0xDB

// errKeysTooLarge refuses keys past what an entry can address.
var errKeysTooLarge = errors.New("monoid: fold table keys exceed 2 GiB")

// getTable returns an empty table over m, from pool when it has one.
func getTable[S any](m Monoid[S], pool *sync.Pool) *foldTable[S] {
	if t, ok := pool.Get().(*foldTable[S]); ok {
		return t
	}
	return &foldTable[S]{m: m, pool: pool, slots: make([]int32, 64)}
}

func (t *foldTable[S]) key(i int32) []byte {
	e := t.ents[i]
	return t.keys[e.off : e.off+e.n]
}

// state returns the index of key's entry, inserting one with the
// identity state when key is new.
func (t *foldTable[S]) state(key []byte) (int32, error) {
	h := maphash.Bytes(tableSeed, key)
	mask := uint64(len(t.slots) - 1)
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
	t.ents = append(t.ents, tableEntry{hash: h, off: int32(len(t.keys)), n: int32(len(key))})
	t.keys = append(t.keys, key...)
	t.states = append(t.states, t.m.Identity())
	t.slots[slot] = i + 1
	if 2*len(t.ents) > len(t.slots) {
		t.grow()
	}
	return i, nil
}

// grow doubles the index and reinserts every entry.
func (t *foldTable[S]) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for i, e := range t.ents {
		slot := e.hash & mask
		for t.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.slots[slot] = int32(i) + 1
	}
}

// Absorb implements FoldTable.
func (t *foldTable[S]) Absorb(key, value []byte) error {
	i, err := t.state(key)
	if err != nil {
		return err
	}
	t.states[i], err = t.m.Absorb(t.states[i], value)
	return err
}

// AbsorbShared implements FoldTable.
func (t *foldTable[S]) AbsorbShared(key []byte, others [][]byte, value []byte) error {
	v, err := t.m.Absorb(t.m.Identity(), value)
	if err != nil {
		return err
	}
	if err := t.merge(key, v); err != nil {
		return err
	}
	for _, k := range others {
		if err := t.merge(k, v); err != nil {
			return err
		}
	}
	return nil
}

// merge merges v into key's state; Merge neither mutates nor keeps v.
func (t *foldTable[S]) merge(key []byte, v S) error {
	i, err := t.state(key)
	if err != nil {
		return err
	}
	t.states[i], err = t.m.Merge(t.states[i], v)
	return err
}

// Len reports how many keys hold a state.
func (t *foldTable[S]) Len() int { return len(t.ents) }

// Emit implements FoldTable.
func (t *foldTable[S]) Emit(out mr.Emitter) error {
	order := t.order[:0]
	for i := range t.ents {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int { return bytes.Compare(t.key(a), t.key(b)) })
	t.order = order
	var err error
	for _, i := range order {
		if err = t.m.Emit(t.key(i), t.states[i], out); err != nil {
			break
		}
	}
	t.reset()
	return err
}

// reset empties the table, keeping its buffers. States are zeroed so
// the table keeps nothing they point to alive.
func (t *foldTable[S]) reset() {
	t.keys, t.ents = t.keys[:0], t.ents[:0]
	clear(t.states)
	t.states = t.states[:0]
	clear(t.slots)
}

// Release implements FoldTable. A table past the pooling bounds Shared
// applies (bytesx.MaxPooledEntries, bytesx.MaxPooledBytes) is left to
// the garbage collector.
func (t *foldTable[S]) Release() {
	t.reset()
	if poisonOnPut {
		keys := t.keys[:cap(t.keys)]
		for i := range keys {
			keys[i] = poisonByte
		}
	}
	var s S
	n := uintptr(cap(t.keys)) + uintptr(cap(t.ents))*unsafe.Sizeof(tableEntry{}) +
		uintptr(cap(t.states))*unsafe.Sizeof(s) + uintptr(len(t.slots)+cap(t.order))*4
	if cap(t.ents) <= bytesx.MaxPooledEntries && n <= bytesx.MaxPooledBytes {
		t.pool.Put(t)
	}
}
