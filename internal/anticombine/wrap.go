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
// the outcome is the same records. Likewise, when the reducer is one
// (monoid.Reducer or monoid.Combiner of a commutative monoid), the
// AntiReducer folds into the same kind of table and finalizes its states
// in key order (foldReducer) instead of staging values in Shared; the
// outcome is the same output. DisableSharedCombine keeps both on Shared.
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
	if fold := foldOf(newReducer, job, opts); fold != nil {
		w.NewReducer = func() mr.Reducer { return newFoldReducer(fold, newMapper, opts) }
	} else {
		w.NewReducer = func() mr.Reducer {
			return &antiReducer{
				inner:       newReducer(),
				newMapper:   newMapper,
				newCombiner: newCombiner,
				opts:        opts,
				rawOrder:    job.KeyCompare == nil,
			}
		}
	}
	w.NewCombiner = nil
	if newCombiner != nil && opts.MapCombiner {
		if fold := foldOf(newCombiner, job, opts); fold != nil {
			w.NewCombiner = func() mr.Reducer { return newFoldCombiner(fold, newMapper) }
		} else {
			w.NewCombiner = func() mr.Reducer {
				return &antiReducer{
					inner:       newCombiner(),
					newMapper:   newMapper,
					newCombiner: newCombiner,
					opts:        opts,
					combineMode: true,
					rawOrder:    job.KeyCompare == nil,
				}
			}
		}
	}
	return &w
}

// foldOf returns the fold tables newReducer's reducers hand out, or nil
// when the transformed function must run on Shared. Folding needs a
// monoid.Folder and key equality that is byte equality (no KeyCompare,
// no GroupCompare); the DisableSharedCombine ablation keeps the Shared
// path.
func foldOf(newReducer func() mr.Reducer, job *mr.Job, opts Options) monoid.Folder {
	if newReducer == nil || opts.DisableSharedCombine || job.KeyCompare != nil || job.GroupCompare != nil {
		return nil
	}
	fold, _ := newReducer().(monoid.Folder)
	return fold
}
