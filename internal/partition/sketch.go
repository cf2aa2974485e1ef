// Package partition implements skew-aware partitioning for mr jobs.
// Hash partitioning collapses under the Zipfian key distributions this
// repository's generators produce: one reducer inherits the heavy
// hitters and the shuffle's makespan is its flow. The package builds a
// key-frequency sketch from a map-side sampling pass (Sample) and turns
// it into one of three strategies (Decide / Apply):
//
//   - StrategyRange: balanced range partitioning — sampled key ranges
//     are bin-packed onto reducers by byte weight, following Afrati et
//     al., "Assignment Problems of Different-Sized Inputs in MapReduce".
//   - StrategySplit: heavy-hitter splitting — a hot key is fanned out
//     across several partitions by salting its key with a deterministic
//     hash of the value; each salted group is partially aggregated by
//     the job's (monoid) combiner on the reduce side and the partials
//     are recombined by the driver (Recombine), so final output is
//     byte-identical to an unsplit run.
//   - StrategyHash: the engine default, kept when the sketch predicts
//     no skew.
//
// The same machinery feeds the SharesSkew-style share allocation of
// internal/workloads/thetajoin (region weights from a sketch over
// region keys, PackLPT for the weighted assignment).
package partition

import (
	"sort"

	"repro/internal/bytesx"
)

// KeyWeight is one sketched key with its sampled weight.
type KeyWeight struct {
	Key []byte
	// Bytes is the framed map-output bytes attributed to the key,
	// Records the record count.
	Bytes   int64
	Records int64
	// ErrBytes bounds the overestimate a Space-Saving counter inherited
	// from evicted entries; Bytes-ErrBytes is a lower bound on the
	// key's true weight.
	ErrBytes int64
}

// Sketch is a Space-Saving heavy-keys sketch (Metwally et al.) over
// map-output keys, weighted by framed record bytes. The counter sum is
// exactly TotalBytes (evictions preserve it), so per-bin load
// predictions from the sketch conserve total mass even past capacity.
// Not safe for concurrent use; build per-split sketches and Merge.
type Sketch struct {
	capacity     int
	items        map[string]*sketchItem
	totalBytes   int64
	totalRecords int64
}

type sketchItem struct {
	bytes, records, errBytes int64
}

// DefaultSketchCapacity bounds tracked keys when NewSketch is given no
// capacity. 4096 distinct counters cover every workload in this
// repository exactly; heavier key spaces degrade gracefully into
// Space-Saving estimates.
const DefaultSketchCapacity = 4096

// NewSketch returns an empty sketch tracking at most capacity keys
// (<= 0 means DefaultSketchCapacity).
func NewSketch(capacity int) *Sketch {
	if capacity <= 0 {
		capacity = DefaultSketchCapacity
	}
	return &Sketch{capacity: capacity, items: make(map[string]*sketchItem)}
}

// Add charges one sampled record's bytes to key.
func (s *Sketch) Add(key []byte, bytes, records int64) {
	if it, ok := s.items[string(key)]; ok {
		it.bytes += bytes
		it.records += records
		s.totalBytes += bytes
		s.totalRecords += records
		return
	}
	s.insert(string(key), bytes, records, 0)
}

func (s *Sketch) insert(key string, bytes, records, errBytes int64) {
	s.totalBytes += bytes
	s.totalRecords += records
	if it, ok := s.items[key]; ok {
		it.bytes += bytes
		it.records += records
		if errBytes > it.errBytes {
			it.errBytes = errBytes
		}
		return
	}
	if len(s.items) < s.capacity {
		s.items[key] = &sketchItem{bytes: bytes, records: records, errBytes: errBytes}
		return
	}
	// Space-Saving eviction: the new key takes over the lightest
	// counter, inheriting its weight as error bound. The min scan is
	// O(capacity) but only runs once the sketch is full, and sampling
	// passes are record-bounded. Ties break on the key so eviction
	// order is independent of map iteration order.
	var minKey string
	var min *sketchItem
	for k, it := range s.items {
		if min == nil || it.bytes < min.bytes || (it.bytes == min.bytes && k < minKey) {
			minKey, min = k, it
		}
	}
	delete(s.items, minKey)
	s.items[key] = &sketchItem{
		bytes:    min.bytes + bytes,
		records:  min.records + records,
		errBytes: maxInt64(min.bytes, errBytes),
	}
}

// Merge folds another sketch into s (deterministically: o's keys are
// folded in byte order, so parallel per-split sketches merge to the
// same result regardless of completion order).
func (s *Sketch) Merge(o *Sketch) {
	keys := make([]string, 0, len(o.items))
	for k := range o.items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		it := o.items[k]
		s.insert(k, it.bytes, it.records, it.errBytes)
	}
}

// TotalBytes is the sampled (scaled) framed map-output byte total.
func (s *Sketch) TotalBytes() int64 { return s.totalBytes }

// TotalRecords is the sampled map-output record total.
func (s *Sketch) TotalRecords() int64 { return s.totalRecords }

// Len is the tracked key count.
func (s *Sketch) Len() int { return len(s.items) }

// Keys returns every tracked key sorted by cmp (nil means byte order).
func (s *Sketch) Keys(cmp bytesx.Compare) []KeyWeight {
	if cmp == nil {
		cmp = bytesx.Bytes
	}
	out := make([]KeyWeight, 0, len(s.items))
	for k, it := range s.items {
		out = append(out, KeyWeight{Key: []byte(k), Bytes: it.bytes, Records: it.records, ErrBytes: it.errBytes})
	}
	sort.Slice(out, func(i, j int) bool { return cmp(out[i].Key, out[j].Key) < 0 })
	return out
}

// HeavyHitters returns the keys whose sampled bytes reach minBytes,
// heaviest first (ties in byte order).
func (s *Sketch) HeavyHitters(minBytes int64) []KeyWeight {
	var out []KeyWeight
	for k, it := range s.items {
		if it.bytes >= minBytes {
			out = append(out, KeyWeight{Key: []byte(k), Bytes: it.bytes, Records: it.records, ErrBytes: it.errBytes})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return string(out[i].Key) < string(out[j].Key)
	})
	return out
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
