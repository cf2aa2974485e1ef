package anticombine

import (
	"bytes"
	"fmt"

	"repro/internal/monoid"
	"repro/internal/mr"
)

// foldCombiner is the transformed map-side combiner Wrap picks when the
// job's combiner is a commutative monoid's (a monoid.Folder) and keys
// compare as raw bytes. Where the AntiReducer's combine mode stages
// every key of an EagerSH record in Shared and pops it through the
// combiner, foldCombiner folds each record straight into the monoid's
// typed per-key state: a plain record is absorbed into its key's state,
// an EagerSH value is absorbed into the state of each of its keys, and
// a LazySH record's re-executed Map output is absorbed pair by pair.
// Cleanup emits every state as a plain record, in ascending key order.
// An instance combines one spill run (or one merge), so what it holds is
// bounded by that run's keys.
type foldCombiner struct {
	table  monoid.FoldTable
	reexec mapReexec
	keys   [][]byte // an EagerSH record's other keys, reused across decodes
	plain  plainEmitter
}

// newFoldCombiner returns a transformed combiner folding into a table
// from fold.
func newFoldCombiner(fold monoid.Folder, newMapper func() mr.Mapper) *foldCombiner {
	table := fold.FoldTable()
	return &foldCombiner{table: table, reexec: mapReexec{newMapper: newMapper, table: table}}
}

// Setup implements mr.Reducer.
func (c *foldCombiner) Setup(info *mr.TaskInfo, _ mr.Emitter) error {
	c.reexec.info = info
	return nil
}

// Reduce implements mr.Reducer. It emits nothing: every state waits for
// Cleanup, since an EagerSH record adds to keys of later groups.
func (c *foldCombiner) Reduce(key []byte, values mr.ValueIter, _ mr.Emitter) error {
	for {
		raw, ok := values.Next()
		if !ok {
			return nil
		}
		if err := c.absorb(key, raw); err != nil {
			return c.fail(err)
		}
	}
}

// absorb folds one encoded record of key's group into the table.
func (c *foldCombiner) absorb(key, raw []byte) error {
	if len(raw) > 0 && raw[0] == EncPlain {
		return c.table.Absorb(key, raw[1:])
	}
	dec, err := decodeValue(raw, c.keys)
	if err != nil {
		return err
	}
	switch dec.Enc {
	case EncEager:
		c.keys = dec.OtherKeys
		return c.table.AbsorbShared(key, dec.OtherKeys, dec.Value)
	case EncLazy:
		return c.reexec.run(dec.InputKey, dec.InputValue)
	}
	return fmt.Errorf("%w: flag %d", ErrBadEncoding, dec.Enc)
}

// Cleanup implements mr.Reducer: every state goes out as a plain record.
func (c *foldCombiner) Cleanup(out mr.Emitter) error {
	c.plain.out = out
	err := c.table.Emit(&c.plain)
	c.table.Release()
	c.table = nil
	if cerr := c.reexec.cleanup(); err == nil {
		err = cerr
	}
	return err
}

// fail releases what a failing task would otherwise keep — the table,
// the reducer-side Map object — since the engine does not call Cleanup
// after an error. It returns err.
func (c *foldCombiner) fail(err error) error {
	c.table.Release()
	c.table = nil
	c.reexec.abort()
	return err
}

// foldReducer is the AntiReducer Wrap picks when the job's reducer is a
// commutative monoid's (a monoid.Folder) and keys compare as raw bytes.
// Where the AntiReducer stages every decoded value in Shared and hands
// each key's values to the original Reduce, foldReducer folds each
// record into the monoid's typed per-key state with foldCombiner's
// absorb, and finalizes the states in ascending key order: those below
// an incoming group before it, the group's own at its end, the rest at
// Cleanup (§5's drain discipline). Each state absorbs its values in the
// order Shared would hand them to the original Reduce.
//
// The table is bounded as Shared is, by SharedMemLimitBytes. Past the
// limit the states' encoded size is measured, and unless it is under
// half the limit the states spill, in key order, as one Shared run. A
// spilled key's run records are absorbed back into its state just
// before the state is finalized.
type foldReducer struct {
	foldCombiner
	limit int
	runs  runSet
	min   []byte // the key being finalized
}

// newFoldReducer returns a fold reducer over a table from fold.
func newFoldReducer(fold monoid.Folder, newMapper func() mr.Mapper, opts Options) *foldReducer {
	limit, mergeFactor := sharedLimits(opts.SharedMemLimitBytes, opts.SharedMergeFactor)
	return &foldReducer{
		foldCombiner: *newFoldCombiner(fold, newMapper),
		limit:        limit,
		runs:         runSet{mergeFactor: mergeFactor},
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

// fail is foldCombiner's, and closes the runs too.
func (r *foldReducer) fail(err error) error {
	r.runs.Close()
	return r.foldCombiner.fail(err)
}
