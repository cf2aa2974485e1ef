package monoid

import (
	"sync"

	"repro/internal/mr"
)

// reducer is the mr.Reducer derived from a Monoid: fold every value of
// the group into a fresh state and emit it, through final when set.
type reducer[S any] struct {
	m     Monoid[S]
	final func(key []byte, s S, out mr.Emitter) error
}

func (r *reducer[S]) Setup(*mr.TaskInfo, mr.Emitter) error { return nil }

func (r *reducer[S]) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	s := r.m.Identity()
	var err error
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		if s, err = r.m.Absorb(s, v); err != nil {
			return err
		}
	}
	return render(r.m, r.final, key, s, out)
}

// render hands a key's final state to final, else to m's Emit.
func render[S any](m Monoid[S], final func([]byte, S, mr.Emitter) error, key []byte, s S, out mr.Emitter) error {
	if final != nil {
		return final(key, s, out)
	}
	return m.Emit(key, s, out)
}

func (r *reducer[S]) Cleanup(mr.Emitter) error { return nil }

// foldingReducer is the reducer derived from a Commutative monoid: the
// same reducer, which also hands out fold tables over the monoid that
// finalize through its final.
type foldingReducer[S any] struct {
	reducer[S]
	tables *sync.Pool // *foldTable[S], shared by every instance of one Combiner or Reducer
}

// FoldTable implements Folder.
func (r *foldingReducer[S]) FoldTable() FoldTable { return getTable(r.m, r.final, r.tables) }

// Folder is implemented by the combiner Combiner and the reducer Reducer
// derive from a Commutative monoid. Anti-Combining's transformed
// map-side combiner and its reducer fold each incoming record into the
// tables a Folder hands out instead of staging every key in Shared.
// FoldTable is safe for concurrent use.
type Folder interface {
	FoldTable() FoldTable
}

// Combiner derives the classic map-side combiner from a monoid
// declaration: per key group, absorb all values and emit the partial
// state. Because Emit round-trips through Absorb, the derived combiner
// is safe to apply repeatedly (map spills, merged spills, reduce-side
// partial aggregation) — exactly the closure property the law checkers
// verify. It is Reducer(m, nil).
func Combiner[S any](m Monoid[S]) func() mr.Reducer { return Reducer(m, nil) }

// Reducer derives the final reducer. With final == nil the reduce
// output is the state encoding itself (aggregate jobs like wordcount
// and skewagg, whose reducer IS their combiner). A non-nil final
// renders the fully merged state into the job's output format instead
// (querysuggest's top-k rendering, pagerank's rank update). For a
// Commutative monoid the reducer is also a Folder.
func Reducer[S any](m Monoid[S], final func(key []byte, s S, out mr.Emitter) error) func() mr.Reducer {
	if _, ok := m.(Commutative[S]); ok {
		tables := new(sync.Pool)
		return func() mr.Reducer { return &foldingReducer[S]{reducer[S]{m: m, final: final}, tables} }
	}
	return func() mr.Reducer { return &reducer[S]{m: m, final: final} }
}
