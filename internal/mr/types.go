// Package mr is a complete single-process MapReduce engine modeled on
// Hadoop's execution pipeline: map tasks collect output into a sorted
// in-memory buffer that spills to (metered) local disk per partition,
// spills are merged with an optional combiner, reduce tasks fetch and
// merge the sorted segments and invoke Reduce once per key group in
// ascending key order. Keys and values are raw bytes with pluggable key
// and grouping comparators, mirroring Hadoop's RawComparator contract.
//
// The engine exists as the substrate for the Anti-Combining optimization
// (package anticombine); every cost the paper reports — map output bytes,
// shuffle bytes, disk read/write, spill counts, per-phase CPU — is
// metered at the same pipeline points Hadoop meters them.
package mr

import (
	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/obs"
)

// Emitter receives intermediate or final records. Implementations copy
// key and value if they retain them; callers may reuse the slices.
type Emitter interface {
	Emit(key, value []byte) error
}

// EmitterFunc adapts a function to the Emitter interface.
type EmitterFunc func(key, value []byte) error

// Emit implements Emitter.
func (f EmitterFunc) Emit(key, value []byte) error { return f(key, value) }

// TaskInfo describes the task a Mapper or Reducer instance runs in. For
// reduce tasks, Partition is the reduce partition number; for map tasks
// it is -1. The partitioner and comparators are exposed so wrappers such
// as Anti-Combining can re-derive record routing, as the paper's
// AntiMapper and AntiReducer do through Hadoop's context object.
type TaskInfo struct {
	JobName string
	// Scratch is the task attempt's scratch directory, inside the job's
	// workspace: wrappers that create scratch files (Anti-Combining's
	// Shared spills) name them "<Scratch>/...". It is private to the
	// attempt, and an attempt that fails has everything under it
	// removed — also when it fails outside the Mapper or Reducer, which
	// then never reaches Cleanup.
	Scratch   string
	TaskID    int
	Partition int
	// Attempt is the 0-based execution attempt of the enclosing task
	// (>0 after scheduler retries or for speculative duplicates; always
	// 0 for merge-time combiner instances).
	Attempt       int
	NumPartitions int
	Partitioner   Partitioner
	KeyCompare    bytesx.Compare
	GroupCompare  bytesx.Compare
	Counters      *Counters
	// FS is the task's metered local filesystem, where the Scratch files
	// live.
	FS iokit.FS
	// Tracer is the job's trace sink (nil when tracing is disabled), so
	// wrappers can emit their own spans — Anti-Combining's Shared uses
	// it for shared-spill / shared-merge spans.
	Tracer *obs.Tracer
}

// Mapper is the Map side of a job. Setup runs once before the first Map
// call of a task, Cleanup once after the last; both may emit.
type Mapper interface {
	Setup(info *TaskInfo, out Emitter) error
	Map(key, value []byte, out Emitter) error
	Cleanup(out Emitter) error
}

// Reducer is the Reduce side of a job (and the Combiner contract). The
// key passed to Reduce, like the values, is valid only for the duration
// of the call: the engine reuses its buffer for the next group.
type Reducer interface {
	Setup(info *TaskInfo, out Emitter) error
	Reduce(key []byte, values ValueIter, out Emitter) error
	Cleanup(out Emitter) error
}

// ValueIter streams the values of one key group. The returned slice is
// valid only until the next call to Next.
type ValueIter interface {
	Next() (value []byte, ok bool)
}

// Partitioner assigns intermediate keys to reduce tasks.
type Partitioner interface {
	Partition(key []byte, numPartitions int) int
}

// PartitionerFunc adapts a function to the Partitioner interface.
type PartitionerFunc func(key []byte, numPartitions int) int

// Partition implements Partitioner.
func (f PartitionerFunc) Partition(key []byte, numPartitions int) int {
	return f(key, numPartitions)
}

// HashPartitioner is the default FNV-1a partitioner, the analogue of
// Hadoop's HashPartitioner.
type HashPartitioner struct{}

// Partition implements Partitioner.
func (HashPartitioner) Partition(key []byte, numPartitions int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(numPartitions))
}

// MapperBase provides no-op Setup and Cleanup for embedding.
type MapperBase struct{}

// Setup implements Mapper.
func (MapperBase) Setup(*TaskInfo, Emitter) error { return nil }

// Cleanup implements Mapper.
func (MapperBase) Cleanup(Emitter) error { return nil }

// ReducerBase provides no-op Setup and Cleanup for embedding.
type ReducerBase struct{}

// Setup implements Reducer.
func (ReducerBase) Setup(*TaskInfo, Emitter) error { return nil }

// Cleanup implements Reducer.
func (ReducerBase) Cleanup(Emitter) error { return nil }

// MapFunc wraps a plain map function as a Mapper.
type MapFunc func(key, value []byte, out Emitter) error

type funcMapper struct {
	MapperBase
	f MapFunc
}

// Map implements Mapper.
func (m *funcMapper) Map(key, value []byte, out Emitter) error { return m.f(key, value, out) }

// NewMapFunc returns a Mapper factory for a stateless map function.
func NewMapFunc(f MapFunc) func() Mapper {
	return func() Mapper { return &funcMapper{f: f} }
}

// ReduceFunc wraps a plain reduce function as a Reducer.
type ReduceFunc func(key []byte, values ValueIter, out Emitter) error

type funcReducer struct {
	ReducerBase
	f ReduceFunc
}

// Reduce implements Reducer.
func (r *funcReducer) Reduce(key []byte, values ValueIter, out Emitter) error {
	return r.f(key, values, out)
}

// NewReduceFunc returns a Reducer factory for a stateless reduce function.
func NewReduceFunc(f ReduceFunc) func() Reducer {
	return func() Reducer { return &funcReducer{f: f} }
}

// Record is a key/value pair.
type Record struct {
	Key   []byte
	Value []byte
}
