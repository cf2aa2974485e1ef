// Package repro is an open-source reproduction of "Anti-Combining for
// MapReduce" (Alper Okcan and Mirek Riedewald, SIGMOD 2014): a complete
// single-process MapReduce engine plus the Anti-Combining optimization,
// which reduces mapper-to-reducer data transfer by shifting mapper work
// to the reducers — the opposite of a Combiner.
//
// This package is the public facade. Define a Job against the Hadoop-
// style Mapper/Reducer/Combiner/Partitioner contracts, enable
// Anti-Combining with one call — the Go analogue of the paper's purely
// syntactic program transformation — and Run it:
//
//	job := &repro.Job{
//	    NewMapper:     func() repro.Mapper { return myMapper{} },
//	    NewReducer:    func() repro.Reducer { return myReducer{} },
//	    Deterministic: true, // allows LazySH (§6.2)
//	}
//	job = repro.AntiCombine(job, repro.AdaptiveInf())
//	result, err := repro.Run(job, splits)
//
// The deeper layers are importable directly: repro/internal/mr (engine),
// repro/internal/anticombine (encodings, Shared structure, wrapper),
// repro/internal/codec (map-output codecs incl. from-scratch Snappy and
// a BWT block codec), repro/internal/experiments (every table and
// figure of §7), and repro/internal/workloads/... (Query-Suggestion,
// WordCount, PageRank, 1-Bucket-Theta join, Sort).
package repro

import (
	"repro/internal/anticombine"
	"repro/internal/mr"
)

// Core engine types, re-exported for public use.
type (
	// Job configures one MapReduce execution.
	Job = mr.Job
	// Mapper is the Map-side contract.
	Mapper = mr.Mapper
	// Reducer is the Reduce-side (and Combiner) contract.
	Reducer = mr.Reducer
	// Emitter receives emitted records.
	Emitter = mr.Emitter
	// ValueIter streams one key group's values.
	ValueIter = mr.ValueIter
	// Partitioner routes keys to reduce tasks.
	Partitioner = mr.Partitioner
	// TaskInfo describes the running task to Setup hooks.
	TaskInfo = mr.TaskInfo
	// Record is a key/value pair.
	Record = mr.Record
	// Split is one map task's input.
	Split = mr.Split
	// MemSplit is an in-memory Split.
	MemSplit = mr.MemSplit
	// GenSplit generates records on demand.
	GenSplit = mr.GenSplit
	// LineSplit streams newline-separated records from a file.
	LineSplit = mr.LineSplit
	// RecordFileSplit streams framed records written by WriteRecordFile.
	RecordFileSplit = mr.RecordFileSplit
	// Result carries a finished job's output and metrics.
	Result = mr.Result
	// Stats is the job metric snapshot.
	Stats = mr.Stats
	// MapperBase and ReducerBase provide no-op Setup/Cleanup.
	MapperBase = mr.MapperBase
	// ReducerBase provides no-op Setup/Cleanup for reducers.
	ReducerBase = mr.ReducerBase
	// HashPartitioner is the default partitioner.
	HashPartitioner = mr.HashPartitioner

	// AntiOptions tunes the Anti-Combining transformation.
	AntiOptions = anticombine.Options
	// AntiStrategy restricts which encodings are considered.
	AntiStrategy = anticombine.Strategy
)

// Anti-Combining strategies.
const (
	// Adaptive is the paper's AdaptiveSH.
	Adaptive = anticombine.Adaptive
	// EagerOnly is pure EagerSH (T = 0).
	EagerOnly = anticombine.EagerOnly
	// LazyOnly is pure LazySH.
	LazyOnly = anticombine.LazyOnly
)

// Run executes a job over the given input splits.
func Run(job *Job, splits []Split) (*Result, error) { return mr.Run(job, splits) }

// AntiCombine enables Anti-Combining on a job through the paper's
// syntactic transformation (§6.1). The job's Mapper, Reducer, Combiner,
// and Partitioner are treated as black boxes.
func AntiCombine(job *Job, opts AntiOptions) *Job { return anticombine.Wrap(job, opts) }

// AdaptiveInf returns the Adaptive-∞ options: free per-partition
// encoding choice, no CPU threshold.
func AdaptiveInf() AntiOptions { return anticombine.AdaptiveInf() }

// Adaptive0 returns the Adaptive-0 options: EagerSH only, never
// re-execute Map on reducers.
func Adaptive0() AntiOptions { return anticombine.Adaptive0() }

// AdaptiveAlpha returns the paper's Adaptive-α options (T = 400 µs).
func AdaptiveAlpha() AntiOptions { return anticombine.AdaptiveAlpha() }

// SplitRecords partitions records into n in-memory splits.
func SplitRecords(recs []Record, n int) []Split { return mr.SplitRecords(recs, n) }

// NewMapFunc adapts a stateless map function to a Mapper factory.
func NewMapFunc(f mr.MapFunc) func() Mapper { return mr.NewMapFunc(f) }

// NewReduceFunc adapts a stateless reduce function to a Reducer factory.
func NewReduceFunc(f mr.ReduceFunc) func() Reducer { return mr.NewReduceFunc(f) }
