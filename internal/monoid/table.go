package monoid

import (
	"bytes"
	"sync"
	"unsafe"

	"repro/internal/bytesx"
	"repro/internal/mr"
)

// FoldTable is a key→state table over one monoid, seen without its
// state type. Keys are compared as raw bytes. The transformed map-side
// combiner fills one and Emits it whole; a reduce
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

// foldTable is the FoldTable over Monoid[S]: a state and its charge per
// id of a bytesx.KeyIndex in raw byte order. Emptied tables are pooled
// per Combiner or Reducer, so of the many short-lived
// instances a job creates only the first few grow one.
type foldTable[S any] struct {
	m     Monoid[S]
	final func(key []byte, s S, out mr.Emitter) error
	pool  *sync.Pool

	keys   bytesx.KeyIndex
	states []S     // by id
	charge []int   // by id: the state's measured size, plus what it absorbed since
	dirty  []bool  // by id: absorbed into since measured
	order  []int32 // Emit's sort scratch

	localS      S // the state Begin keeps outside the table
	localCharge int
	localDirty  bool
	cur         []byte // local's key
	hasLocal    bool

	total int // every state's charge
}

// getTable returns an empty table over m finalizing through final, from
// pool when it has one.
func getTable[S any](m Monoid[S], final func([]byte, S, mr.Emitter) error, pool *sync.Pool) *foldTable[S] {
	if t, ok := pool.Get().(*foldTable[S]); ok {
		return t
	}
	return &foldTable[S]{m: m, final: final, pool: pool}
}

// state returns key's id, with the identity state and key's bytes as
// its charge when key is new.
func (t *foldTable[S]) state(key []byte) (int32, error) {
	id, added, err := t.keys.Insert(key)
	if !added {
		return id, err
	}
	if int(id) == len(t.states) {
		var zero S
		t.states, t.charge, t.dirty = append(t.states, zero), append(t.charge, 0), append(t.dirty, false)
	}
	t.states[id], t.charge[id], t.dirty[id] = t.m.Identity(), len(key), false
	t.total += len(key)
	return id, nil
}

// Absorb implements FoldTable: into the local state when key is its,
// else into key's entry.
func (t *foldTable[S]) Absorb(key, value []byte) error {
	charge, dirty, s := &t.localCharge, &t.localDirty, &t.localS
	if !t.hasLocal || !bytes.Equal(key, t.cur) {
		id, err := t.state(key)
		if err != nil {
			return err
		}
		charge, dirty, s = &t.charge[id], &t.dirty[id], &t.states[id]
	}
	var err error
	*s, err = t.m.Absorb(*s, value)
	*charge, *dirty = *charge+len(value), true
	t.total += len(value)
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
	t.localS, t.localCharge, t.localDirty, t.hasLocal = t.m.Identity(), 0, false, true
}

// Min implements FoldTable.
func (t *foldTable[S]) Min() ([]byte, bool) {
	if t.hasLocal {
		return t.cur, true
	}
	id, ok := t.keys.Min()
	if !ok {
		return nil, false
	}
	return t.keys.Key(id), true
}

// FinalizeMin implements FoldTable.
func (t *foldTable[S]) FinalizeMin(out mr.Emitter) error {
	var zero S
	if t.hasLocal {
		t.hasLocal = false
		t.total -= t.localCharge
		err := render(t.m, t.final, t.cur, t.localS, out)
		t.localS = zero
		return err
	}
	id, _ := t.keys.Min()
	t.total -= t.charge[id]
	err := render(t.m, t.final, t.keys.Key(id), t.states[id], out)
	t.keys.PopMin()
	t.states[id], t.dirty[id] = zero, false
	return err
}

// Charge implements FoldTable.
func (t *foldTable[S]) Charge() int { return t.total }

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
	measure := func(key []byte, charge *int, dirty *bool, s S) error {
		var err error
		if sized {
			c.n = len(key) + sizer.Size(s)
		} else {
			c.n = len(key)
			err = t.m.Emit(key, s, &c)
		}
		t.total += c.n - *charge
		*charge, *dirty = c.n, false
		return err
	}
	if t.hasLocal && t.localDirty {
		if err := measure(t.cur, &t.localCharge, &t.localDirty, t.localS); err != nil {
			return 0, err
		}
	}
	for id, dirty := range t.dirty {
		if dirty && t.keys.Live(int32(id)) {
			if err := measure(t.keys.Key(int32(id)), &t.charge[id], &t.dirty[id], t.states[id]); err != nil {
				return 0, err
			}
		}
	}
	return t.total, nil
}

// Emit implements FoldTable.
func (t *foldTable[S]) Emit(out mr.Emitter) error {
	var err error
	if t.hasLocal {
		err = t.m.Emit(t.cur, t.localS, out)
		t.localS, t.localCharge, t.localDirty = t.m.Identity(), 0, false
	}
	t.order = t.keys.Sorted(t.order[:0])
	for i := 0; err == nil && i < len(t.order); i++ {
		err = t.m.Emit(t.keys.Key(t.order[i]), t.states[t.order[i]], out)
	}
	t.reset()
	return err
}

// reset empties the table of entries, keeping its buffers. States are
// zeroed so the table keeps nothing they point to alive.
func (t *foldTable[S]) reset() {
	t.keys.Reset()
	clear(t.states)
	clear(t.dirty)
	t.total = 0
}

// Release implements FoldTable. A table past the pooling bounds Shared
// applies (bytesx.MaxPooledEntries, bytesx.MaxPooledBytes) is left to
// the garbage collector.
func (t *foldTable[S]) Release() {
	t.reset()
	var zero S
	t.localS, t.localCharge, t.localDirty, t.hasLocal = zero, 0, false, false
	t.keys.Release()
	ids, n := t.keys.Footprint()
	n += uintptr(cap(t.states))*unsafe.Sizeof(zero) + uintptr(cap(t.charge))*unsafe.Sizeof(0) +
		uintptr(cap(t.dirty)) + uintptr(cap(t.order))*4
	if ids <= bytesx.MaxPooledEntries && n <= bytesx.MaxPooledBytes {
		t.pool.Put(t)
	}
}
