package anticombine

import (
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
// an EagerSH value is absorbed once and merged into the state of each of
// its keys, and a LazySH record's re-executed Map output is absorbed
// pair by pair. Cleanup emits every state as a plain record, in
// ascending key order. An instance combines one spill run (or one merge),
// so what it holds is bounded by that run's keys.
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
