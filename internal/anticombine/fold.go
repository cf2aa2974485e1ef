package anticombine

import (
	"bytes"

	"repro/internal/monoid"
	"repro/internal/mr"
)

// foldReducer is the transformed function Wrap picks when the function
// — the job's reducer, or its map-side combiner — is a monoid's (a
// monoid.Folder) and keys compare as raw bytes. Where the AntiReducer
// stages every decoded value in Shared and hands each key's values to
// the original Reduce, foldReducer folds each record into the monoid's
// typed per-key state: a plain record is absorbed into its key's state,
// an EagerSH value into the state of each of its keys, and a LazySH
// record's re-executed Map output pair by pair. It finalizes the states
// in ascending key order, through the function's own rendering (for
// monoid.Combiner, the monoid's Emit): those below an incoming group
// before it, the group's own at its end, the rest at Cleanup (§5's
// drain discipline). Each state absorbs its values in the order Shared
// would hand them to the original Reduce.
//
// The table is bounded by limit. Past it the states' encoded size is
// measured, and unless it is under half the limit the states spill, in
// key order, as one Shared run. A spilled key's run records are
// absorbed back into its state just before the state is finalized. A
// reducer's limit is SharedMemLimitBytes; a combiner's is unbounded,
// since an instance combines one spill run (or one merge) and what it
// holds is bounded by that run's keys.
type foldReducer struct {
	table  monoid.FoldTable
	reexec mapReexec
	limit  int
	runs   runSet
	min    []byte // the key being finalized
}

// newFoldReducer returns a fold over a table from fold, spilling past
// limit.
func newFoldReducer(fold monoid.Folder, newMapper func() mr.Mapper, limit, mergeFactor int) *foldReducer {
	table := fold.FoldTable()
	return &foldReducer{
		table:  table,
		reexec: mapReexec{newMapper: newMapper, table: table},
		limit:  limit,
		runs:   runSet{mergeFactor: mergeFactor},
	}
}

// Setup implements mr.Reducer.
func (r *foldReducer) Setup(info *mr.TaskInfo, _ mr.Emitter) error {
	r.reexec.info = info
	r.runs.RunMerger = mr.NewRunMerger(info.FS, nil)
	r.runs.fs, r.runs.info = info.FS, info
	r.runs.counters, r.runs.tracer = info.Counters, info.Tracer
	return nil
}

// Reduce implements mr.Reducer.
func (r *foldReducer) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	if err := r.finalize(key, belowKey, out); err != nil {
		return r.fail(err)
	}
	r.table.Begin(key)
	for {
		raw, ok := values.Next()
		if !ok {
			break
		}
		if err := r.absorb(key, raw); err != nil {
			return r.fail(err)
		}
		if err := r.bound(); err != nil {
			return r.fail(err)
		}
	}
	if err := r.finalize(key, throughKey, out); err != nil {
		return r.fail(err)
	}
	return nil
}

// absorb folds one encoded record of key's group into the table. An
// EagerSH value goes into key's state and then into each other key's,
// in the order Shared would hand it to the reducer; its keys are read
// where they lie in the record.
func (r *foldReducer) absorb(key, raw []byte) error {
	switch {
	case len(raw) > 0 && raw[0] == EncPlain:
		return r.table.Absorb(key, raw[1:])
	case len(raw) > 0 && raw[0] == EncEager:
		others, _, value, err := splitEager(raw[1:])
		if err != nil {
			return err
		}
		err = r.table.Absorb(key, value)
		for err == nil && len(others) > 0 {
			key, others = nextKey(others)
			err = r.table.Absorb(key, value)
		}
		return err
	}
	dec, err := decodeValue(raw, nil) // LazySH, or not an encoding
	if err != nil {
		return err
	}
	return r.reexec.run(dec.InputKey, dec.InputValue)
}

// How far finalize goes: the states whose keys compare to its key below
// the bound.
const (
	belowKey   = 0 // keys below it
	throughKey = 1 // and the key itself
	everyKey   = 2 // every key
)

// finalize renders, in ascending key order, the states of the keys
// whose bytes.Compare with key is below bound, first absorbing what the
// runs hold for each.
func (r *foldReducer) finalize(key []byte, bound int, out mr.Emitter) error {
	for {
		k, ok := r.table.Min()
		if rk, rok := r.runs.Peek(); rok && (!ok || bytes.Compare(rk, k) < 0) {
			k, ok = rk, true
		}
		if !ok || bytes.Compare(k, key) >= bound {
			return nil
		}
		r.min = append(r.min[:0], k...)
		for rk, ok := r.runs.Peek(); ok && bytes.Equal(rk, r.min); rk, ok = r.runs.Peek() {
			_, v, err := r.runs.Next()
			if err != nil {
				return err
			}
			if err := r.table.Absorb(r.min, v); err != nil {
				return err
			}
		}
		if err := r.table.FinalizeMin(out); err != nil {
			return err
		}
	}
}

// bound holds the table to the limit: past it, the states are measured,
// and unless they encode in under half the limit they spill as one run.
func (r *foldReducer) bound() error {
	if r.table.Charge() <= r.limit {
		return nil
	}
	if n, err := r.table.Measure(); err != nil || n < r.limit/2 {
		return err
	}
	return r.runs.spill(func(w *mr.RecordWriter) error {
		return r.table.Emit(mr.EmitterFunc(w.Write))
	})
}

// Cleanup implements mr.Reducer: every state left is finalized.
func (r *foldReducer) Cleanup(out mr.Emitter) error {
	if err := r.finalize(nil, everyKey, out); err != nil {
		return r.fail(err)
	}
	if err := r.runs.Close(); err != nil {
		return r.fail(err)
	}
	r.table.Release()
	r.table = nil
	return r.reexec.cleanup()
}

// fail releases what a failing task would otherwise keep — the runs,
// the table, the reducer-side Map object — since the engine does not
// call Cleanup after an error. It returns err.
func (r *foldReducer) fail(err error) error {
	r.runs.Close()
	r.table.Release()
	r.table = nil
	r.reexec.abort()
	return err
}
