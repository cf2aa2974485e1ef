package anticombine

import (
	"fmt"

	"repro/internal/monoid"
	"repro/internal/mr"
)

// antiReducer is the paper's AntiReducer (Figure 8). It also serves as
// the transformed Combiner (§6.1: "a Combiner is defined as a reducer
// class, hence we apply the same syntactic transformation"), with the
// original combiner as its inner reducer, behind plainCombiner. Because
// the engine feeds both reducers and combiners their key groups in
// ascending key order and calls Cleanup at the end, the drain-Shared
// discipline keeps output keys ascending in both roles.
type antiReducer struct {
	inner       mr.Reducer
	newMapper   func() mr.Mapper
	newCombiner func() mr.Reducer
	opts        Options
	rawOrder    bool // the job left KeyCompare nil: Shared orders raw bytes

	info   *mr.TaskInfo
	shared Shared
	reexec mapReexec

	// Per-call state kept here so a Reduce call allocates nothing.
	group  groupIter // the incoming group, as the original Reduce sees it
	popped sliceIter // a group popped from Shared
}

// Setup implements mr.Reducer.
func (r *antiReducer) Setup(info *mr.TaskInfo, out mr.Emitter) error {
	r.info = info

	var sharedCombiner mr.Reducer
	if r.newCombiner != nil && !r.opts.DisableSharedCombine {
		sharedCombiner = r.newCombiner()
		if err := sharedCombiner.Setup(info, discardEmitter{}); err != nil {
			return err
		}
	}
	keyCompare := info.KeyCompare
	if r.rawOrder {
		keyCompare = nil
	}
	r.shared.init(SharedConfig{
		KeyCompare:    keyCompare,
		GroupCompare:  info.GroupCompare,
		MemLimitBytes: r.opts.SharedMemLimitBytes,
		MergeFactor:   r.opts.SharedMergeFactor,
		FS:            info.FS,
		Combiner:      sharedCombiner,
		Counters:      info.Counters,
		Tracer:        info.Tracer,
	})
	r.shared.runs.info = info
	r.reexec = mapReexec{newMapper: r.newMapper, info: info, shared: &r.shared}
	return r.inner.Setup(info, out)
}

// plainEmitter re-encodes emitted values as plain records. A combiner's
// values are partial aggregates, mostly a few bytes: those are encoded
// in small, so that of the many combiner instances a job creates only
// the ones that emit something longer allocate a buffer.
type plainEmitter struct {
	out     mr.Emitter
	scratch []byte
	small   [32]byte
}

// Emit implements mr.Emitter.
func (e *plainEmitter) Emit(k, v []byte) error {
	if e.scratch == nil {
		e.scratch = e.small[:0]
	}
	e.scratch = AppendPlainValue(e.scratch[:0], v)
	return e.out.Emit(k, e.scratch)
}

// plainCombiner is a transformed combiner, of either kind: it
// re-encodes what the transformed function emits as plain records, so
// the reduce phase can still decode the stream.
type plainCombiner struct {
	inner mr.Reducer
	plain plainEmitter
}

// Setup implements mr.Reducer.
func (c *plainCombiner) Setup(info *mr.TaskInfo, out mr.Emitter) error {
	c.plain.out = out
	return c.inner.Setup(info, &c.plain)
}

// Reduce implements mr.Reducer.
func (c *plainCombiner) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	c.plain.out = out
	return c.inner.Reduce(key, values, &c.plain)
}

// Cleanup implements mr.Reducer.
func (c *plainCombiner) Cleanup(out mr.Emitter) error {
	c.plain.out = out
	return c.inner.Cleanup(&c.plain)
}

// fail releases what a failing task would otherwise leak — Shared's
// open spill-run readers and their files, the reducer-side Map object —
// since the engine does not call Cleanup after an error. It returns err.
func (r *antiReducer) fail(err error) error {
	r.shared.Close()
	r.reexec.abort()
	return err
}

// Reduce implements mr.Reducer, realizing Algorithms 2 and 4: drain
// Shared below the current key, then run the original Reduce on the
// union of this key's decoded records and what Shared holds for it.
// Unless Shared already holds part of the group, the records are not
// staged there first: the original Reduce pulls them through groupIter.
func (r *antiReducer) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	if err := r.drainBelow(key, out); err != nil {
		return r.fail(err)
	}
	it := &r.group
	*it = groupIter{r: r, key: key, in: values}
	if mk, ok := r.shared.peekMin(); ok && r.info.GroupCompare(mk, key) == 0 {
		// Shared's part of the group may sort before the incoming one.
		if it.stage(); it.err != nil {
			return r.fail(it.err)
		}
		key = it.stagedKey
	}
	err := r.inner.Reduce(key, it, out)
	// The original Reduce may return early, or not notice a decode error
	// behind a false Next. Every record must be decoded regardless: the
	// other keys it carries belong to later groups.
	for err == nil {
		if _, ok := it.Next(); !ok {
			err = it.err
			break
		}
	}
	if err != nil {
		return r.fail(err)
	}
	return nil
}

// groupIter is the ValueIter the original Reduce gets for an incoming
// key group. It starts in pass-through: plain values, and an EagerSH
// record's own-key value, are handed on as views of the engine's buffer
// while the record's other keys — all in later groups — go to Shared.
// The first record that can put a key of this group into Shared (a
// LazySH record, or an EagerSH record with such an other key) ends
// pass-through: it and the rest of the input are staged in Shared, whose
// group is then popped and served. The original Reduce sees the sequence
// full staging produces (DESIGN.md, "Reduce-side hot path"): every key a
// record contributes is >= the current key, so what is passed on first —
// the current key's values, in arrival order — is what staging pops
// first.
type groupIter struct {
	r   *antiReducer
	key []byte
	in  mr.ValueIter

	staged    bool      // pass-through is over
	stagedKey []byte    // the popped group's key
	rest      sliceIter // the popped group's values
	err       error
}

// Next implements mr.ValueIter.
func (it *groupIter) Next() ([]byte, bool) {
	r := it.r
	for !it.staged && it.err == nil {
		raw, ok := it.in.Next()
		if !ok {
			it.staged = true // exhausted, with nothing popped
			break
		}
		if len(raw) > 0 && raw[0] == EncPlain {
			return raw[1:], true
		}
		var dec Decoded
		if dec, it.err = decodeValue(raw, r.shared.decodeKeys); it.err != nil {
			break
		}
		if dec.Enc == EncEager && !r.anyInGroup(dec.OtherKeys, it.key) {
			if it.err = r.addOthers(dec); it.err != nil {
				break
			}
			return dec.Value, true
		}
		if it.err = r.addDecoded(it.key, dec); it.err == nil {
			it.stage()
		}
	}
	if it.err != nil {
		return nil, false
	}
	return it.rest.Next()
}

// anyInGroup reports whether any of keys is group-equal to key.
func (r *antiReducer) anyInGroup(keys [][]byte, key []byte) bool {
	for _, k := range keys {
		if r.info.GroupCompare(k, key) == 0 {
			return true
		}
	}
	return false
}

// stage ends pass-through: every remaining incoming record is decoded
// into Shared, and Shared's group for the current key, then complete, is
// popped.
func (it *groupIter) stage() {
	r := it.r
	it.staged = true
	for it.err == nil {
		raw, ok := it.in.Next()
		if !ok {
			// Every decoded key is >= the current key, so Shared's minimum
			// is the current group or a later one.
			if mk, ok := r.shared.peekMin(); ok && r.info.GroupCompare(mk, it.key) == 0 {
				it.stagedKey, it.rest.vals, it.err = r.shared.PopMinKeyValues()
			}
			return
		}
		var dec Decoded
		if dec, it.err = decodeValue(raw, r.shared.decodeKeys); it.err == nil {
			it.err = r.addDecoded(it.key, dec)
		}
	}
}

// addDecoded adds one decoded record of the group keyed key to Shared.
func (r *antiReducer) addDecoded(key []byte, dec Decoded) error {
	switch dec.Enc {
	case EncPlain:
		return r.shared.Add(key, dec.Value)
	case EncEager:
		if err := r.shared.Add(key, dec.Value); err != nil {
			return err
		}
		return r.addOthers(dec)
	case EncLazy:
		return r.reexec.run(dec.InputKey, dec.InputValue)
	}
	return fmt.Errorf("%w: flag %d", ErrBadEncoding, dec.Enc)
}

// addOthers adds an EagerSH record's value under its other keys, and
// keeps the record's key slice as the next decode's scratch.
func (r *antiReducer) addOthers(dec Decoded) error {
	r.shared.decodeKeys = dec.OtherKeys
	for _, k := range dec.OtherKeys {
		if err := r.shared.Add(k, dec.Value); err != nil {
			return err
		}
	}
	return nil
}

// mapReexec regenerates LazySH records' Map output on a reducer or a
// transformed combiner, keeping only the pairs the Partitioner assigns
// there (Algorithm 4, lines 6-10): they go to the AntiReducer's Shared,
// or into the fold's table. The original Map object it needs is
// made by the first LazySH record: a job whose stream carries none — and
// each of the many transformed combiners that meet none — does without.
type mapReexec struct {
	newMapper func() mr.Mapper
	info      *mr.TaskInfo
	shared    *Shared
	table     monoid.FoldTable

	m   mr.Mapper // the reducer-side Map object
	err error     // an error keeping a pair returned during the current run
	n   int64     // batched CounterMapReexec, flushed by cleanup
}

// run re-executes Map on one LazySH record's input.
func (x *mapReexec) run(inputKey, inputValue []byte) error {
	if x.m == nil {
		m := x.newMapper()
		if err := m.Setup(x.info, discardEmitter{}); err != nil {
			return err
		}
		x.m = m
	}
	x.n++
	x.err = nil
	err := x.m.Map(inputKey, inputValue, x)
	if x.err != nil {
		// Reported even when the original Map swallowed it.
		return x.err
	}
	return err
}

// Emit implements mr.Emitter for the re-executed Map's output.
func (x *mapReexec) Emit(k, v []byte) error {
	if x.info.Partitioner.Partition(k, x.info.NumPartitions) != x.info.Partition {
		return nil
	}
	if x.table != nil {
		x.err = x.table.Absorb(k, v)
	} else {
		x.err = x.shared.Add(k, v)
	}
	return x.err
}

// cleanup runs the Map object's Cleanup and publishes the
// re-execution count.
func (x *mapReexec) cleanup() error {
	if x.m != nil {
		if err := x.m.Cleanup(discardEmitter{}); err != nil {
			return err
		}
	}
	x.info.Counters.AddExtra(CounterMapReexec, x.n)
	x.n = 0
	return nil
}

// abort is cleanup for a failing task: the Map object is cleaned up and
// nothing is published.
func (x *mapReexec) abort() {
	if x.m != nil {
		x.m.Cleanup(discardEmitter{})
	}
}

// reduceMin pops Shared's smallest group and runs the original Reduce
// on it.
func (r *antiReducer) reduceMin(out mr.Emitter) error {
	gk, vals, err := r.shared.PopMinKeyValues()
	if err != nil {
		return err
	}
	r.popped = sliceIter{vals: vals}
	return r.inner.Reduce(gk, &r.popped, out)
}

// drainBelow runs the original Reduce for every Shared key group below
// key (the repeat-until loop of Algorithms 2 and 4).
func (r *antiReducer) drainBelow(key []byte, out mr.Emitter) error {
	for {
		altKey, ok := r.shared.peekMin()
		if !ok || r.info.GroupCompare(altKey, key) >= 0 {
			return nil
		}
		if err := r.reduceMin(out); err != nil {
			return err
		}
	}
}

// Cleanup implements mr.Reducer: the remaining Shared keys — those never
// seen as representative keys in the regular input — get their Reduce
// calls here (§3.2's clean-up drain), then the wrapped functions clean up.
func (r *antiReducer) Cleanup(out mr.Emitter) error {
	for !r.shared.Empty() {
		if err := r.reduceMin(out); err != nil {
			return r.fail(err)
		}
	}
	if err := r.shared.Close(); err != nil {
		return r.fail(err)
	}
	if err := r.reexec.cleanup(); err != nil {
		return err
	}
	return r.inner.Cleanup(out)
}

// sliceIter streams a popped value slice as an mr.ValueIter.
type sliceIter struct {
	vals [][]byte
	i    int
}

// Next implements mr.ValueIter.
func (it *sliceIter) Next() ([]byte, bool) {
	if it.i >= len(it.vals) {
		return nil, false
	}
	v := it.vals[it.i]
	it.i++
	return v, true
}

// discardEmitter swallows emissions from wrapped Setup/Cleanup hooks
// that have no legal output channel (e.g. the reducer-side Map object).
type discardEmitter struct{}

// Emit implements mr.Emitter.
func (discardEmitter) Emit(_, _ []byte) error { return nil }
