package anticombine

import (
	"repro/internal/monoid"
	"repro/internal/mr"
)

// Wrap applies the Anti-Combining program transformation of §6.1 to a
// job, treating its Mapper, Reducer, Combiner and Partitioner as black
// boxes — the Go analogue of the paper's purely syntactic class rewrite.
// The returned job runs the same computation; its mapper-to-reducer
// stream carries adaptively encoded records instead.
//
// Following §6.2, LazySH is disabled unless the job declares
// Deterministic, because re-executing a non-deterministic Map (or
// Partitioner) on the reducer could change keys or routing.
//
// The original combiner is kept in the map phase only when
// opts.MapCombiner (the paper's flag C) is set, in which case it is
// wrapped by the same transformation; either way it is used to collapse
// Shared in the reduce phase unless opts.DisableSharedCombine is set.
// When the combiner is a commutative monoid's (monoid.Folder) and keys
// compare as raw bytes, the transformed map-side combiner folds every
// record into the monoid's typed per-key state instead (foldCombiner);
// the outcome is the same records.
func Wrap(job *mr.Job, opts Options) *mr.Job {
	w := *job
	w.Name = job.Name + "-anti-" + opts.Strategy.String()

	lazyAllowed := job.Deterministic && opts.Strategy != EagerOnly

	newMapper := job.NewMapper
	newReducer := job.NewReducer
	newCombiner := job.NewCombiner

	w.NewMapper = func() mr.Mapper {
		return &antiMapper{inner: newMapper(), opts: opts, lazyAllowed: lazyAllowed}
	}
	w.NewReducer = func() mr.Reducer {
		return &antiReducer{
			inner:       newReducer(),
			newMapper:   newMapper,
			newCombiner: newCombiner,
			opts:        opts,
		}
	}
	switch fold := foldOf(job, opts); {
	case fold != nil:
		w.NewCombiner = func() mr.Reducer { return newFoldCombiner(fold, newMapper) }
	case newCombiner != nil && opts.MapCombiner:
		w.NewCombiner = func() mr.Reducer {
			return &antiReducer{
				inner:       newCombiner(),
				newMapper:   newMapper,
				newCombiner: newCombiner,
				opts:        opts,
				combineMode: true,
			}
		}
	default:
		w.NewCombiner = nil
	}
	return &w
}

// foldOf returns the fold tables the transformed map-side combiner
// folds into, or nil when it must run as the AntiReducer's combine mode.
// Folding needs a map-side combiner that is a monoid.Folder and key
// equality that is byte equality (no KeyCompare, no GroupCompare); the
// DisableSharedCombine ablation keeps the Shared path.
func foldOf(job *mr.Job, opts Options) monoid.Folder {
	if job.NewCombiner == nil || !opts.MapCombiner || opts.DisableSharedCombine ||
		job.KeyCompare != nil || job.GroupCompare != nil {
		return nil
	}
	fold, _ := job.NewCombiner().(monoid.Folder)
	return fold
}
