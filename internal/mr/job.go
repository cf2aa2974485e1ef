package mr

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/bytesx"
	"repro/internal/codec"
	"repro/internal/iokit"
	"repro/internal/obs"
)

// Job configures one MapReduce execution. NewMapper / NewReducer /
// NewCombiner are factories because each task gets a private instance
// (tasks run concurrently and instances may hold per-task state).
type Job struct {
	// Name labels the job in file names and logs.
	Name string
	// Workspace is the file-name prefix under which every file the job
	// writes (spills, map-output segments, fetch copies, merge
	// intermediates, Shared anti-combining spills) is created. It
	// defaults to Name; the cluster runtime sets a per-job-instance
	// value ("j000042") so one worker filesystem can host many
	// concurrent jobs without path collisions and a finished job's
	// files can all be removed under one prefix.
	Workspace string
	// NewMapper creates the Mapper for one map task. Required.
	NewMapper func() Mapper
	// NewReducer creates the Reducer for one reduce task. Required.
	NewReducer func() Reducer
	// NewCombiner, if set, creates the map-side combiner, run over
	// sorted runs at spill time (and during multi-spill merges).
	NewCombiner func() Reducer
	// Partitioner routes keys to reduce tasks. Defaults to
	// HashPartitioner.
	Partitioner Partitioner
	// NumReduceTasks is the number of reduce partitions. Defaults to 4.
	NumReduceTasks int
	// KeyCompare orders intermediate keys. Defaults to bytesx.Bytes.
	KeyCompare bytesx.Compare
	// GroupCompare decides which consecutive keys share a Reduce call
	// (Hadoop's grouping comparator, e.g. for secondary sort). Defaults
	// to KeyCompare.
	GroupCompare bytesx.Compare
	// Codec compresses map output on disk and over the shuffle.
	// Defaults to codec.Identity.
	Codec codec.Codec
	// SortBufferBytes caps the map-side collect buffer before a spill.
	// Defaults to 4 MiB.
	SortBufferBytes int
	// MergeFactor is a reduce's streaming fan-in: the most segments it
	// merges straight into Reduce. A reduce with more first merges some
	// of them on disk, and so does a map task's combining final merge.
	// Defaults to 10.
	MergeFactor int
	// FS is the local "disk" for spills and map output segments.
	// Defaults to a fresh in-memory filesystem.
	FS iokit.FS
	// Parallelism caps concurrently running tasks. Defaults to
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// SpillParallelism caps concurrent per-partition work inside one map
	// task: the run writes of a single spill and the per-partition final
	// merges run on up to this many goroutines. Independent runs write
	// independent files, so output is byte-identical at any setting.
	// Defaults to runtime.GOMAXPROCS(0); 1 reproduces the historical
	// strictly sequential spill/merge path.
	SpillParallelism int
	// MaxTaskAttempts caps execution attempts per task (map, fetch,
	// reduce). A task runs one attempt at a time; attempts beyond the
	// first are made only for transient errors (injected I/O faults,
	// integrity violations), with exponential backoff from 1ms.
	// Defaults to 1 (no retries).
	MaxTaskAttempts int
	// Tracer, when non-nil, receives typed trace spans from every layer
	// of the run — job, map/fetch/reduce attempts, combiner passes, and
	// anticombine's Shared spills — exportable as Chrome trace-event
	// JSON. Nil disables tracing at effectively zero cost.
	Tracer *obs.Tracer
	// Metrics, when non-nil, gets the job's live counters registered
	// under the job name for the duration of the run (and beyond: the
	// source stays registered so a reporter's final line matches the
	// job's final Stats).
	Metrics *obs.Registry
	// Deterministic declares that Map and Partitioner are deterministic
	// functions of their inputs. When false, Anti-Combining disables
	// LazySH (paper §6.2). The engine itself does not use it.
	Deterministic bool
	// AlignedInput declares that split i's map output routes entirely to
	// reduce partition i — the same-partitioning fast path a DAG stage
	// gets when it consumes the previous stage's partitioned output with
	// a partition-preserving map. The engine then requires exactly
	// NumReduceTasks splits, builds only the diagonal fetch tasks
	// (fetch/p/p), and reduce p depends on map p alone — the shuffle's
	// all-to-all edge set collapses to a per-partition pass-through. The
	// claim is enforced, not trusted: a map emission routed off the
	// diagonal fails the task with ErrMisaligned.
	AlignedInput bool
	// DiscardOutput drops reduce output records instead of gathering
	// them into Result.Output (they are still counted). Off by default;
	// large jobs that only need their stats can turn it on.
	DiscardOutput bool

	// rawKeyOrder is set by normalized when KeyCompare was left nil. Under
	// the default bytesx.Bytes order the spill radix-sorts each bucket on
	// its entries' 8-byte key prefixes, the combiner groups by prefix and
	// length, and merges compare cached prefixes before key bytes — none
	// of it calls through the comparator function pointer.
	rawKeyOrder bool
	// bufs is the free list a run's map tasks pass their arenas
	// through: Run sets its own on its normalized copy; a task executed
	// outside a Run keeps normalized's outsideRun.
	bufs *runBuffers
}

// mergeCompare is the order newMergeIter takes for this normalized job:
// nil under the raw-bytes order, so the merge heap compares cached key
// prefixes, and KeyCompare otherwise.
func (j *Job) mergeCompare() bytesx.Compare {
	if j.rawKeyOrder {
		return nil
	}
	return j.KeyCompare
}

// errJob reports an invalid job configuration.
var errJob = errors.New("mr: invalid job")

// normalized returns a defaulted copy of j, validating required fields.
func (j *Job) normalized() (*Job, error) {
	if j.NewMapper == nil {
		return nil, fmt.Errorf("%w: NewMapper is required", errJob)
	}
	if j.NewReducer == nil {
		return nil, fmt.Errorf("%w: NewReducer is required", errJob)
	}
	c := *j
	if c.Name == "" {
		c.Name = "job"
	}
	if c.Workspace == "" {
		c.Workspace = c.Name
	}
	if c.Partitioner == nil {
		c.Partitioner = HashPartitioner{}
	}
	if c.NumReduceTasks <= 0 {
		c.NumReduceTasks = defaultReduceTasks
	}
	if c.KeyCompare == nil {
		c.KeyCompare = bytesx.Bytes
		c.rawKeyOrder = true
	}
	if c.GroupCompare == nil {
		c.GroupCompare = c.KeyCompare
	}
	if c.Codec == nil {
		c.Codec = codec.Identity{}
	}
	if c.SortBufferBytes <= 0 {
		c.SortBufferBytes = 4 << 20
	}
	if c.SortBufferBytes > maxArenaBytes {
		return nil, fmt.Errorf("%w: SortBufferBytes %d exceeds the collect buffer's %d addressable bytes", errJob, c.SortBufferBytes, maxArenaBytes)
	}
	if c.MergeFactor < 2 {
		c.MergeFactor = 10
	}
	if c.FS == nil {
		c.FS = iokit.NewMemFS()
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.SpillParallelism <= 0 {
		c.SpillParallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxTaskAttempts <= 0 {
		c.MaxTaskAttempts = 1
	}
	if c.bufs == nil {
		c.bufs = outsideRun
	}
	return &c, nil
}
