// Package sortwl implements the Hadoop Sort workload used by §7.1's
// overhead analysis: Map emits exactly one output record per input
// record (the record itself), so there are no sharing opportunities and
// Anti-Combining's adaptive encoder must degrade to plain records whose
// only cost is the one-byte encoding flag.
package sortwl

import (
	"repro/internal/datagen"
	"repro/internal/mr"
)

type mapper struct{ mr.MapperBase }

// Map implements mr.Mapper: the line becomes the sort key.
func (mapper) Map(key, value []byte, out mr.Emitter) error {
	return out.Emit(value, nil)
}

// Reducer re-emits each key once per occurrence, so a job's output is
// the sorted multiset of its map output keys. Other sorts of a key
// multiset (the experiments' prefix sort) reuse it.
type Reducer struct{ mr.ReducerBase }

// Reduce implements mr.Reducer, emitting each key once per occurrence.
func (Reducer) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	for {
		if _, ok := values.Next(); !ok {
			return nil
		}
		if err := out.Emit(key, nil); err != nil {
			return err
		}
	}
}

// NewJob builds the Sort job.
func NewJob(reducers int) *mr.Job {
	if reducers <= 0 {
		reducers = 8
	}
	return &mr.Job{
		Name:           "sort",
		NewMapper:      func() mr.Mapper { return mapper{} },
		NewReducer:     func() mr.Reducer { return Reducer{} },
		NumReduceTasks: reducers,
		Deterministic:  true,
	}
}

// Splits renders random-text lines as in-memory sort input.
func Splits(text *datagen.RandomText, numSplits int) []mr.Split {
	return mr.LineSplits(text.Len(), numSplits, text.Line)
}
