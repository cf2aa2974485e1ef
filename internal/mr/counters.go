package mr

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iokit"
)

// Counters aggregates job metrics across concurrently running tasks.
type Counters struct {
	mapInputRecords   atomic.Int64
	mapOutputRecords  atomic.Int64
	mapOutputBytes    atomic.Int64
	shuffleBytes      atomic.Int64
	spills            atomic.Int64
	combineInRecords  atomic.Int64
	combineOutRecords atomic.Int64
	reduceInRecords   atomic.Int64
	reduceOutRecords  atomic.Int64
	mapTaskNs         atomic.Int64
	reduceTaskNs      atomic.Int64

	// partBytes, sized once by InitPartitions before any task runs,
	// meters framed map-output bytes per reduce partition — the
	// per-partition flow prediction the skew-aware partitioning layer
	// (internal/partition) and its experiments consume. Unsized, the
	// meter is a no-op.
	partBytes []atomic.Int64

	mu    sync.Mutex
	extra map[string]int64
	// meter and start are wired once by the engine before tasks launch
	// so every Snapshot — including one taken mid-job by a live
	// observer — carries consistent disk and wall-time readings instead
	// of zeros patched on after the run. end freezes the wall clock when
	// the job finishes, so post-run snapshots (a reporter's final line)
	// agree exactly with the returned Result.Stats.
	meter *iokit.Meter
	start time.Time
	end   time.Time
}

// SetDiskMeter wires the job's disk meter so snapshots include
// DiskReadBytes / DiskWriteBytes. Call before tasks start.
func (c *Counters) SetDiskMeter(m *iokit.Meter) {
	c.mu.Lock()
	c.meter = m
	c.mu.Unlock()
}

// MarkStart records the job's start time so snapshots include the
// elapsed WallTime. Call before tasks start.
func (c *Counters) MarkStart(t time.Time) {
	c.mu.Lock()
	c.start = t
	c.mu.Unlock()
}

// MarkEnd freezes the wall clock: snapshots taken after it report
// end-start instead of a still-ticking elapsed time.
func (c *Counters) MarkEnd(t time.Time) {
	c.mu.Lock()
	c.end = t
	c.mu.Unlock()
}

// InitPartitions sizes the per-partition map-output meter for n reduce
// partitions. The engine (and ExecMapTask, for cluster workers) calls
// it before any task runs; until then AddMapOutputPartition is a no-op
// and snapshots carry a nil MapOutputPerPartition.
func (c *Counters) InitPartitions(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	if len(c.partBytes) != n {
		c.partBytes = make([]atomic.Int64, n)
	}
	c.mu.Unlock()
}

// AddMapOutputPartition charges framed map-output bytes to partition
// p's meter. Callers may invoke it unconditionally: out-of-range
// partitions and unsized meters are no-ops.
func (c *Counters) AddMapOutputPartition(p int, bytes int64) {
	if p < 0 || p >= len(c.partBytes) {
		return
	}
	c.partBytes[p].Add(bytes)
}

// AddShuffle meters fetched shuffle data arriving at the reduce side:
// wire bytes (post-codec) and framed record counts. ExecFetchTask calls
// it per source; an executor with a fetch loop of its own calls it
// directly.
func (c *Counters) AddShuffle(bytes, records int64) {
	c.shuffleBytes.Add(bytes)
	c.reduceInRecords.Add(records)
}

// AddExtra adds n to a named auxiliary counter (e.g. Anti-Combining's
// encoding-choice and Shared-spill counters).
func (c *Counters) AddExtra(name string, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.extra == nil {
		c.extra = make(map[string]int64)
	}
	c.extra[name] += n
}

// Extra reads a named auxiliary counter.
func (c *Counters) Extra(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.extra[name]
}

// Stats is an immutable snapshot of job metrics.
type Stats struct {
	// MapInputRecords counts records fed to Map calls.
	MapInputRecords int64
	// MapOutputRecords counts records emitted by mappers into the
	// framework (after any Anti-Combining encoding).
	MapOutputRecords int64
	// MapOutputBytes is the framed size of mapper output before
	// compression: the paper's "Total Map Output Size".
	MapOutputBytes int64
	// ShuffleBytes is the on-the-wire size transferred from map to
	// reduce tasks (after the map-output codec).
	ShuffleBytes int64
	// Spills counts map-side buffer spills.
	Spills int64
	// CombineInputRecords / CombineOutputRecords meter the map-phase
	// combiner.
	CombineInputRecords  int64
	CombineOutputRecords int64
	// ReduceInputRecords counts framed records entering reduce tasks
	// (before Anti-Combining decoding).
	ReduceInputRecords int64
	// ReduceOutputRecords counts records emitted by reducers.
	ReduceOutputRecords int64
	// DiskReadBytes / DiskWriteBytes meter all local I/O (spills,
	// merges, shuffle reads, Shared spills).
	DiskReadBytes  int64
	DiskWriteBytes int64
	// MapCPU / ReduceCPU are summed single-threaded task times, the
	// analogue of the paper's "total CPU time" split by phase.
	MapCPU    time.Duration
	ReduceCPU time.Duration
	// MapOutputPerPartition is each reduce partition's framed map-output
	// bytes — the pre-codec flow sizes the skew-aware partitioning layer
	// predicts and balances. Nil when the meter was never sized.
	MapOutputPerPartition []int64
	// WallTime is the end-to-end job time in this process.
	WallTime time.Duration
	// Extra holds auxiliary counters keyed by name.
	Extra map[string]int64
}

// TotalCPU is the summed task CPU across both phases.
func (s Stats) TotalCPU() time.Duration { return s.MapCPU + s.ReduceCPU }

// Accumulate folds another snapshot into s, summing every counter and
// both CPU totals (WallTime is taken as the max, since concurrently
// produced snapshots overlap in time). The cluster coordinator uses it
// to assemble job-level Stats from the per-attempt snapshots of
// committed task attempts.
func (s *Stats) Accumulate(o Stats) {
	s.MapInputRecords += o.MapInputRecords
	s.MapOutputRecords += o.MapOutputRecords
	s.MapOutputBytes += o.MapOutputBytes
	s.ShuffleBytes += o.ShuffleBytes
	s.Spills += o.Spills
	s.CombineInputRecords += o.CombineInputRecords
	s.CombineOutputRecords += o.CombineOutputRecords
	s.ReduceInputRecords += o.ReduceInputRecords
	s.ReduceOutputRecords += o.ReduceOutputRecords
	s.DiskReadBytes += o.DiskReadBytes
	s.DiskWriteBytes += o.DiskWriteBytes
	s.MapCPU += o.MapCPU
	s.ReduceCPU += o.ReduceCPU
	if len(o.MapOutputPerPartition) > 0 {
		if len(s.MapOutputPerPartition) < len(o.MapOutputPerPartition) {
			grown := make([]int64, len(o.MapOutputPerPartition))
			copy(grown, s.MapOutputPerPartition)
			s.MapOutputPerPartition = grown
		}
		for i, v := range o.MapOutputPerPartition {
			s.MapOutputPerPartition[i] += v
		}
	}
	if o.WallTime > s.WallTime {
		s.WallTime = o.WallTime
	}
	if len(o.Extra) > 0 && s.Extra == nil {
		s.Extra = make(map[string]int64, len(o.Extra))
	}
	for k, v := range o.Extra {
		s.Extra[k] += v
	}
}

// Labeled flattens the stats into the snake_case metric map consumed by
// the obs metrics registry. Durations are reported in milliseconds;
// extra counters keep their registered names.
func (s Stats) Labeled() map[string]int64 {
	m := map[string]int64{
		"map_input_records":      s.MapInputRecords,
		"map_output_records":     s.MapOutputRecords,
		"map_output_bytes":       s.MapOutputBytes,
		"shuffle_bytes":          s.ShuffleBytes,
		"spills":                 s.Spills,
		"combine_input_records":  s.CombineInputRecords,
		"combine_output_records": s.CombineOutputRecords,
		"reduce_input_records":   s.ReduceInputRecords,
		"reduce_output_records":  s.ReduceOutputRecords,
		"disk_read_bytes":        s.DiskReadBytes,
		"disk_write_bytes":       s.DiskWriteBytes,
		"map_cpu_ms":             s.MapCPU.Milliseconds(),
		"reduce_cpu_ms":          s.ReduceCPU.Milliseconds(),
		"wall_ms":                s.WallTime.Milliseconds(),
	}
	for k, v := range s.Extra {
		m[k] = v
	}
	return m
}

// String renders the headline stats for logs.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mapIn=%d mapOut=%d mapOutBytes=%d shuffleBytes=%d spills=%d reduceIn=%d reduceOut=%d diskR=%d diskW=%d cpu=%s wall=%s",
		s.MapInputRecords, s.MapOutputRecords, s.MapOutputBytes, s.ShuffleBytes,
		s.Spills, s.ReduceInputRecords, s.ReduceOutputRecords,
		s.DiskReadBytes, s.DiskWriteBytes, s.TotalCPU(), s.WallTime)
	if len(s.Extra) > 0 {
		names := make([]string, 0, len(s.Extra))
		for n := range s.Extra {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, s.Extra[n])
		}
	}
	return b.String()
}

// Snapshot copies current counter values into a Stats. When the engine
// has wired a disk meter and start time, the snapshot is self-
// consistent mid-job: disk bytes and wall time reflect the same moment
// as the record counters rather than being zero until the run ends.
func (c *Counters) Snapshot() Stats {
	c.mu.Lock()
	extra := make(map[string]int64, len(c.extra))
	for k, v := range c.extra {
		extra[k] = v
	}
	meter, start, end := c.meter, c.start, c.end
	parts := c.partBytes
	c.mu.Unlock()
	var perPart []int64
	if len(parts) > 0 {
		perPart = make([]int64, len(parts))
		for i := range parts {
			perPart[i] = parts[i].Load()
		}
	}
	var diskR, diskW int64
	if meter != nil {
		diskR, diskW = meter.ReadBytes(), meter.WriteBytes()
	}
	var wall time.Duration
	switch {
	case !start.IsZero() && !end.IsZero():
		wall = end.Sub(start)
	case !start.IsZero():
		wall = time.Since(start)
	}
	return Stats{
		DiskReadBytes:         diskR,
		DiskWriteBytes:        diskW,
		WallTime:              wall,
		MapInputRecords:       c.mapInputRecords.Load(),
		MapOutputRecords:      c.mapOutputRecords.Load(),
		MapOutputBytes:        c.mapOutputBytes.Load(),
		ShuffleBytes:          c.shuffleBytes.Load(),
		Spills:                c.spills.Load(),
		CombineInputRecords:   c.combineInRecords.Load(),
		CombineOutputRecords:  c.combineOutRecords.Load(),
		ReduceInputRecords:    c.reduceInRecords.Load(),
		ReduceOutputRecords:   c.reduceOutRecords.Load(),
		MapCPU:                time.Duration(c.mapTaskNs.Load()),
		ReduceCPU:             time.Duration(c.reduceTaskNs.Load()),
		MapOutputPerPartition: perPart,
		Extra:                 extra,
	}
}
