package partition

import (
	"fmt"
	"sort"

	"repro/internal/bytesx"
)

// rangesPerReducer controls cut granularity: the key space is cut into
// about reducers*rangesPerReducer equal-weight ranges before
// bin-packing, so the packer has slack to balance around heavy keys.
const rangesPerReducer = 8

// RangePartitioner is an mr.Partitioner routing keys by sampled-weight-
// balanced ranges: the sketch's key space is cut into near-equal-weight
// ranges, and ranges are LPT bin-packed onto reducers. A key whose
// range was never sampled still routes deterministically (it falls into
// the enclosing range by comparator order).
type RangePartitioner struct {
	// bounds[i] is range i's inclusive upper bound; the last range is
	// unbounded above, so assign has len(bounds)+1 entries.
	bounds   [][]byte
	assign   []int
	loads    []int64
	reducers int
	cmp      bytesx.Compare
}

// BuildRange builds a balanced range plan from a sketch. cmp must be
// the job's key order (nil means the default byte order).
func BuildRange(sk *Sketch, reducers int, cmp bytesx.Compare) (*RangePartitioner, error) {
	if reducers < 1 {
		return nil, fmt.Errorf("partition: range plan needs >= 1 reducers, got %d", reducers)
	}
	if cmp == nil {
		cmp = bytesx.Bytes
	}
	keys := sk.Keys(cmp)
	if len(keys) == 0 {
		return nil, fmt.Errorf("partition: range plan from an empty sketch")
	}
	bounds, weights := cutRanges(keys, sk.TotalBytes(), reducers*rangesPerReducer)
	assign, loads := PackLPT(weights, reducers)
	return &RangePartitioner{bounds: bounds, assign: assign, loads: loads, reducers: reducers, cmp: cmp}, nil
}

// cutRanges cuts sorted keys into at most targetRanges contiguous
// ranges of near-equal byte weight. A key heavier than the chunk size
// ends its range immediately — range partitioning cannot split inside
// a key, which is exactly the residual skew StrategySplit removes.
func cutRanges(keys []KeyWeight, total int64, targetRanges int) (bounds [][]byte, weights []int64) {
	if targetRanges < 1 {
		targetRanges = 1
	}
	if targetRanges > len(keys) {
		targetRanges = len(keys)
	}
	chunk := total / int64(targetRanges)
	if chunk < 1 {
		chunk = 1
	}
	var acc int64
	for i, kw := range keys {
		acc += kw.Bytes
		last := i == len(keys)-1
		if acc >= chunk && !last {
			bounds = append(bounds, append([]byte(nil), kw.Key...))
			weights = append(weights, acc)
			acc = 0
		}
	}
	weights = append(weights, acc) // the final, unbounded-above range
	return bounds, weights
}

// Partition implements mr.Partitioner.
func (p *RangePartitioner) Partition(key []byte, numPartitions int) int {
	idx := sort.Search(len(p.bounds), func(i int) bool { return p.cmp(key, p.bounds[i]) <= 0 })
	bin := p.assign[idx]
	if numPartitions != p.reducers {
		// The plan was built for p.reducers; degrade deterministically
		// rather than routing out of range.
		return bin % numPartitions
	}
	return bin
}

// PredictedLoads is the packer's per-reducer byte prediction.
func (p *RangePartitioner) PredictedLoads() []int64 {
	return append([]int64(nil), p.loads...)
}
