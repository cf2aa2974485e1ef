package monoid

import (
	"bytes"
	"encoding/binary"
	"unsafe"

	"repro/internal/mr"
)

// KeyTable is the FoldTable a reduce task folds into: the tables of the
// reducer Reducer derives from a Commutative monoid. It keeps its states
// in ascending key order and finalizes them one key at a time, smallest
// first, through the reducer's final (else Emit), which is how a reduce
// task drains what earlier key groups contributed to later keys.
//
// Begin keeps the incoming group's own state outside the table when the
// table does not hold its key: a group of plain values costs no hash
// probe and no entry. Absorb, AbsorbShared and Emit work on that local
// state as on any other; it counts as the table's smallest key.
//
// The table charges what a Shared staging the same values would: every
// key's bytes once while it holds a state, plus every absorbed value.
// Measure replaces that charge with the states' encoded size, which it
// takes from the monoid's Size when it is a Sizer and counts through Emit
// otherwise.
type KeyTable interface {
	FoldTable
	// Begin starts the group of key, which must sort below every key
	// the table holds or equal the smallest. Unless the table holds
	// key, its values go into the local state until it is finalized.
	Begin(key []byte)
	// Min returns the smallest key holding a state. The view is valid
	// until the table next changes.
	Min() ([]byte, bool)
	// FinalizeMin removes the smallest key's state and renders it to
	// out.
	FinalizeMin(out mr.Emitter) error
	// Charge reports the bytes the live states are charged for.
	Charge() int
	// Measure counts the bytes Emit would write for the live states
	// (each key once), makes that the charge and returns it.
	Measure() (int, error)
}

// keyTable is the KeyTable over Monoid[S]: live keys indexed by a map
// and ordered by a min-heap on their 8-byte big-endian prefix, with one
// state per key. Each key's bytes are stored once, as the index's string.
type keyTable[S any] struct {
	m     Monoid[S]
	size  func(S) int // m's Size, when m is a Sizer
	final func(key []byte, s S, out mr.Emitter) error

	index map[string]int32 // live key → entry
	ents  []keyEntry[S]
	free  []int32 // slots of ents not in use
	heap  []int32 // live entries, smallest key first

	local    keyEntry[S] // the state Begin keeps outside the table
	hasLocal bool
	cur      []byte // local's key

	charge int
}

// keyEntry is one key's state and what it is charged: its measured
// size, plus what it absorbed since it was measured (dirty).
type keyEntry[S any] struct {
	key    string
	prefix uint64
	state  S
	charge int
	dirty  bool
}

func newKeyTable[S any](m Monoid[S], final func([]byte, S, mr.Emitter) error) *keyTable[S] {
	t := &keyTable[S]{m: m, final: final, index: make(map[string]int32)}
	if sz, ok := m.(Sizer[S]); ok {
		t.size = sz.Size
	}
	return t
}

// keyPrefix is key's first 8 bytes, big-endian and zero-padded: prefixes
// order as their keys do, up to ties.
func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// view returns s's bytes without copying; nothing writes through it.
func view(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

func (t *keyTable[S]) less(a, b int32) bool {
	ea, eb := &t.ents[a], &t.ents[b]
	if ea.prefix != eb.prefix {
		return ea.prefix < eb.prefix
	}
	return ea.key < eb.key
}

// Begin implements KeyTable.
func (t *keyTable[S]) Begin(key []byte) {
	if min, ok := t.Min(); ok && bytes.Equal(min, key) {
		return
	}
	t.cur = append(t.cur[:0], key...)
	t.local = keyEntry[S]{state: t.m.Identity()}
	t.hasLocal = true
}

// entry returns key's state holder, inserting one with the identity
// state when the table does not hold key, and marks it dirty.
func (t *keyTable[S]) entry(key []byte) *keyEntry[S] {
	if t.hasLocal && bytes.Equal(key, t.cur) {
		t.local.dirty = true
		return &t.local
	}
	if i, ok := t.index[string(key)]; ok {
		t.ents[i].dirty = true
		return &t.ents[i]
	}
	i := int32(len(t.ents))
	if n := len(t.free); n > 0 {
		i, t.free = t.free[n-1], t.free[:n-1]
	} else {
		t.ents = append(t.ents, keyEntry[S]{})
	}
	k := string(key)
	t.ents[i] = keyEntry[S]{key: k, prefix: keyPrefix(key), state: t.m.Identity(), charge: len(k), dirty: true}
	t.charge += len(k)
	t.index[k] = i
	t.heap = append(t.heap, i)
	t.up(len(t.heap) - 1)
	return &t.ents[i]
}

func (t *keyTable[S]) up(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !t.less(t.heap[j], t.heap[parent]) {
			return
		}
		t.heap[j], t.heap[parent] = t.heap[parent], t.heap[j]
		j = parent
	}
}

// pop removes the smallest live entry from the heap and the index, and
// returns its slot, which the caller frees once done with it.
func (t *keyTable[S]) pop() int32 {
	top := t.heap[0]
	n := len(t.heap) - 1
	t.heap[0] = t.heap[n]
	t.heap = t.heap[:n]
	for j := 0; ; {
		c := 2*j + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && t.less(t.heap[r], t.heap[c]) {
			c = r
		}
		if !t.less(t.heap[c], t.heap[j]) {
			break
		}
		t.heap[j], t.heap[c] = t.heap[c], t.heap[j]
		j = c
	}
	delete(t.index, t.ents[top].key)
	return top
}

// Absorb implements FoldTable.
func (t *keyTable[S]) Absorb(key, value []byte) error {
	e := t.entry(key)
	var err error
	e.state, err = t.m.Absorb(e.state, value)
	e.charge += len(value)
	t.charge += len(value)
	return err
}

// AbsorbShared implements FoldTable: value is absorbed into each key's
// state in turn, in the order a Shared would hand it to the reducer.
func (t *keyTable[S]) AbsorbShared(key []byte, others [][]byte, value []byte) error {
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

// Min implements KeyTable.
func (t *keyTable[S]) Min() ([]byte, bool) {
	if t.hasLocal {
		return t.cur, true
	}
	if len(t.heap) == 0 {
		return nil, false
	}
	return view(t.ents[t.heap[0]].key), true
}

// FinalizeMin implements KeyTable.
func (t *keyTable[S]) FinalizeMin(out mr.Emitter) error {
	if t.hasLocal {
		t.hasLocal = false
		t.charge -= t.local.charge
		s := t.local.state
		t.local = keyEntry[S]{}
		return t.render(t.cur, s, out)
	}
	i := t.pop()
	e := t.ents[i]
	t.ents[i] = keyEntry[S]{}
	t.free = append(t.free, i)
	t.charge -= e.charge
	return t.render(view(e.key), e.state, out)
}

func (t *keyTable[S]) render(key []byte, s S, out mr.Emitter) error {
	if t.final != nil {
		return t.final(key, s, out)
	}
	return t.m.Emit(key, s, out)
}

// Charge implements KeyTable.
func (t *keyTable[S]) Charge() int { return t.charge }

// byteCounter is the Emitter Measure counts a state's encoding with.
type byteCounter struct{ n int }

// Emit implements mr.Emitter.
func (c *byteCounter) Emit(_, v []byte) error {
	c.n += len(v)
	return nil
}

// Measure implements KeyTable. A state not absorbed into since it was
// last measured still encodes in what was measured then, so only the
// dirty ones are sized, or emitted when the monoid is not a Sizer.
func (t *keyTable[S]) Measure() (int, error) {
	var c byteCounter
	measure := func(key []byte, e *keyEntry[S]) error {
		var err error
		if t.size != nil {
			c.n = len(key) + t.size(e.state)
		} else {
			c.n = len(key)
			err = t.m.Emit(key, e.state, &c)
		}
		t.charge += c.n - e.charge
		e.charge, e.dirty = c.n, false
		return err
	}
	if t.hasLocal && t.local.dirty {
		if err := measure(t.cur, &t.local); err != nil {
			return 0, err
		}
	}
	for _, i := range t.heap {
		if e := &t.ents[i]; e.dirty {
			if err := measure(view(e.key), e); err != nil {
				return 0, err
			}
		}
	}
	return t.charge, nil
}

// Emit implements FoldTable: every state goes to the monoid's Emit, the
// local one first, and the table is left empty. The local key stays the
// current group's, to be finalized from what is absorbed into it later.
func (t *keyTable[S]) Emit(out mr.Emitter) error {
	var err error
	if t.hasLocal {
		err = t.m.Emit(t.cur, t.local.state, out)
		t.local = keyEntry[S]{state: t.m.Identity()}
	}
	for len(t.heap) > 0 {
		i := t.pop()
		if err == nil {
			err = t.m.Emit(view(t.ents[i].key), t.ents[i].state, out)
		}
		t.ents[i] = keyEntry[S]{}
		t.free = append(t.free, i)
	}
	t.charge = 0
	return err
}

// Release implements FoldTable.
func (t *keyTable[S]) Release() {
	clear(t.index)
	clear(t.ents)
	t.ents, t.free, t.heap = t.ents[:0], t.free[:0], t.heap[:0]
	t.local, t.hasLocal, t.charge = keyEntry[S]{}, false, 0
}
