package anticombine

import (
	"math"

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
// wrapped by the same transformation as the reducer, its output
// re-encoded as plain records; either way it is used to collapse Shared
// in the reduce phase unless opts.DisableSharedCombine is set. A
// function that is a monoid's (monoid.Folder), under keys that compare
// as raw bytes, is transformed into a fold of the monoid's typed
// per-key states, finalized in key order (foldReducer), instead of an
// AntiReducer staging values in Shared; the outcome is the same.
// DisableSharedCombine keeps both roles on Shared.
func Wrap(job *mr.Job, opts Options) *mr.Job {
	w := *job
	w.Name = job.Name + "-anti-" + opts.Strategy.String()

	lazyAllowed := job.Deterministic && opts.Strategy != EagerOnly
	newMapper := job.NewMapper
	w.NewMapper = func() mr.Mapper {
		return &antiMapper{inner: newMapper(), opts: opts, lazyAllowed: lazyAllowed}
	}
	w.NewReducer = transform(job.NewReducer, job, opts, false)
	w.NewCombiner = nil
	if job.NewCombiner != nil && opts.MapCombiner {
		w.NewCombiner = transform(job.NewCombiner, job, opts, true)
	}
	return &w
}

// transform returns the factory of newFn's transformed functions, as
// the job's combiner or its reducer. A fold needs a monoid.Folder and
// key equality that is byte equality (no KeyCompare, no GroupCompare),
// and the DisableSharedCombine ablation keeps the Shared path. A
// combiner's fold never spills.
func transform(newFn func() mr.Reducer, job *mr.Job, opts Options, combiner bool) func() mr.Reducer {
	if newFn == nil {
		return nil
	}
	newMapper, newCombiner := job.NewMapper, job.NewCombiner
	var fold monoid.Folder
	if !opts.DisableSharedCombine && job.KeyCompare == nil && job.GroupCompare == nil {
		fold, _ = newFn().(monoid.Folder)
	}
	newTransformed := func() mr.Reducer {
		return &antiReducer{inner: newFn(), newMapper: newMapper, newCombiner: newCombiner, opts: opts, rawOrder: job.KeyCompare == nil}
	}
	if fold != nil {
		limit, mergeFactor := sharedLimits(opts.SharedMemLimitBytes, opts.SharedMergeFactor)
		if combiner {
			limit = math.MaxInt
		}
		newTransformed = func() mr.Reducer { return newFoldReducer(fold, newMapper, limit, mergeFactor) }
	}
	if !combiner {
		return newTransformed
	}
	return func() mr.Reducer { return &plainCombiner{inner: newTransformed()} }
}
