// Package monoid defines the algebraic aggregation contract that
// combiners, reducers and Anti-Combining's eager partial merge are all
// instances of (Lin's "Monoidify!", PAPERS.md): an Identity state that
// absorbs values one at a time, where a state's encoded partial absorbs
// as the values it aggregates do. A workload declares its monoid once;
// the adapters in this package derive the classic map-side Combiner,
// the reducer and the typed fold table the transformed map-side
// combiner and reducer fold records into from that one declaration,
// and the law checkers verify (rather than assume) the algebra every
// derived strategy depends on.
//
// The contract is byte-oriented on the outside — mr jobs move raw
// []byte values — but state-typed on the inside: Absorb decodes one
// encoded value (a raw map emission or a previously emitted partial)
// into the aggregation state S, and Emit encodes a state back into
// output records. Multi-record states (querysuggest's per-query count
// table) are as welcome as single-valued ones (wordcount's sum).
package monoid

import (
	"repro/internal/mr"
)

// Monoid is the aggregation contract one workload declares once, over
// its state type S. The engine only ever absorbs raw values and values
// Emit wrote, so the laws are stated over those (verified by CheckLaws,
// not assumed), with A and B batches of raw values:
//
//	A, then Emit(B)  ==  A, then B          partial aggregation
//	Emit(e), then A  ==  A  ==  A, then Emit(e)    identity
//	Emit(A), absorbed  ==  A                closure
//	A, then B  ==  B, then A                commutativity
//	Size(s)  ==  value bytes Emit writes for s     when a Sizer
//
// where Emit(B) is the values Emit writes for B's state, e is
// Identity(), and states compare by their encoding.
//
// Absorb must accept every value the workload's map phase emits AND
// every encoding Emit produces — a combiner's output feeds later
// combiner passes (merged spills, reduce-side partial aggregation), so
// the value space must be closed under partial aggregation. States must
// not depend on the order values arrive in: heavy-hitter splitting
// (internal/partition), cross-worker partial aggregation and the fold
// table, which absorbs an EagerSH value into each of its keys as it
// arrives, all recombine partials in whatever order they come.
type Monoid[S any] interface {
	// Identity returns a fresh empty aggregation state.
	Identity() S
	// Absorb folds one encoded value into the state, returning the
	// (possibly replaced) state. It may mutate s; it must not retain
	// value, which is only valid for the call.
	Absorb(s S, value []byte) (S, error)
	// Emit encodes the state as output records for key. The encoding
	// must round-trip through Absorb.
	Emit(key []byte, s S, out mr.Emitter) error
}

// Sizer is implemented by a Monoid that can count a state's encoding
// without rendering it: Size(s) is the number of value bytes Emit writes
// for s, summed over its records (keys not included). A FoldTable
// measures its states through Size when the monoid declares it, and
// through Emit otherwise. CheckLaws verifies the claim.
type Sizer[S any] interface {
	Size(s S) int
}

// captureEmitter collects Emit output in memory.
type captureEmitter struct {
	recs []mr.Record
}

// Emit implements mr.Emitter.
func (c *captureEmitter) Emit(key, value []byte) error {
	k := append([]byte(nil), key...)
	v := append([]byte(nil), value...)
	c.recs = append(c.recs, mr.Record{Key: k, Value: v})
	return nil
}

// EmitRecords runs Emit into memory — the canonical encoding of a
// state, used by the law checkers.
func EmitRecords[S any](m Monoid[S], key []byte, s S) ([]mr.Record, error) {
	cap := &captureEmitter{}
	if err := m.Emit(key, s, cap); err != nil {
		return nil, err
	}
	return cap.recs, nil
}
