package partition

import (
	"fmt"
	"sort"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/mr"
)

// saltSep separates a hot key from its one-byte salt in the
// intermediate key space. Salted keys sort directly after their base
// key under the default byte order, and the separator never appears as
// a salted key's penultimate byte in an unsalted record unless the
// workload itself emits keys of that shape — SplitJob therefore
// requires the default comparator and keys are checked against the
// plan's hot set, not just the separator.
const saltSep = 0x00

// hotFraction: a key is split when its sampled bytes exceed
// hotFraction × (total/reducers) — slightly before a key alone fills a
// reducer, since range packing cannot place a partial key.
const hotFraction = 0.8

// hotKey is one split key's per-salt partition assignment.
type hotKey struct {
	parts []int
}

// SplitPlan fans heavy-hitter keys across several partitions: the
// SplitJob mapper wrapper salts a hot key with hash(value)%fanout, the
// plan routes each salt to its packed partition, the SplitJob reducer
// wrapper partially aggregates each salted group with the job's monoid
// combiner, and Recombine folds the partials into final records after
// the run. Non-hot keys route through an embedded range plan built
// over the remaining key space.
type SplitPlan struct {
	base     *RangePartitioner
	hot      map[string]hotKey
	loads    []int64
	reducers int
}

// BuildSplit builds a heavy-hitter splitting plan from a sketch. cmp
// must be nil or bytesx.Bytes: salting appends bytes to keys, which
// only preserves ordering contracts under the default comparator.
func BuildSplit(sk *Sketch, reducers int, cmp bytesx.Compare) (*SplitPlan, error) {
	if reducers < 1 {
		return nil, fmt.Errorf("partition: split plan needs >= 1 reducers, got %d", reducers)
	}
	if cmp == nil {
		cmp = bytesx.Bytes
	}
	keys := sk.Keys(cmp)
	if len(keys) == 0 {
		return nil, fmt.Errorf("partition: split plan from an empty sketch")
	}
	target := sk.TotalBytes() / int64(reducers)
	if target < 1 {
		target = 1
	}
	hotCut := int64(hotFraction * float64(target))

	var cold []KeyWeight
	type hotEnt struct {
		key    string
		fanout int
		bytes  int64
	}
	var hots []hotEnt
	for _, kw := range keys {
		if kw.Bytes > hotCut {
			fanout := int((kw.Bytes + target - 1) / target)
			if fanout < 2 {
				fanout = 2
			}
			if fanout > reducers {
				fanout = reducers
			}
			hots = append(hots, hotEnt{key: string(kw.Key), fanout: fanout, bytes: kw.Bytes})
			continue
		}
		cold = append(cold, kw)
	}

	var coldTotal int64
	for _, kw := range cold {
		coldTotal += kw.Bytes
	}
	bounds, weights := cutRanges(cold, coldTotal, reducers*rangesPerReducer)
	if len(cold) == 0 {
		// Every key was hot; keep one catch-all zero-weight range so
		// unsampled keys still route.
		bounds, weights = nil, []int64{0}
	}
	nRanges := len(weights)
	for _, h := range hots {
		per := h.bytes / int64(h.fanout)
		for i := 0; i < h.fanout; i++ {
			weights = append(weights, per)
		}
	}
	assign, loads := PackLPT(weights, reducers)

	plan := &SplitPlan{
		base:     &RangePartitioner{bounds: bounds, assign: assign[:nRanges], reducers: reducers, cmp: cmp},
		hot:      make(map[string]hotKey, len(hots)),
		loads:    loads,
		reducers: reducers,
	}
	next := nRanges
	for _, h := range hots {
		plan.hot[h.key] = hotKey{parts: append([]int(nil), assign[next:next+h.fanout]...)}
		next += h.fanout
	}
	return plan, nil
}

// Partition implements mr.Partitioner.
func (p *SplitPlan) Partition(key []byte, numPartitions int) int {
	if base, salt, ok := p.saltOf(key); ok {
		bin := p.hot[string(base)].parts[salt]
		if numPartitions != p.reducers {
			return bin % numPartitions
		}
		return bin
	}
	if hk, ok := p.hot[string(key)]; ok {
		// An unsalted record carrying a hot key (emitted outside the
		// SplitJob mapper wrapper) routes to the key's home partition.
		bin := hk.parts[0]
		if numPartitions != p.reducers {
			return bin % numPartitions
		}
		return bin
	}
	return p.base.Partition(key, numPartitions)
}

// saltOf decodes key as base||saltSep||salt for a planned hot base.
func (p *SplitPlan) saltOf(key []byte) (base []byte, salt int, ok bool) {
	if len(key) < 3 || key[len(key)-2] != saltSep {
		return nil, 0, false
	}
	base = key[:len(key)-2]
	hk, found := p.hot[string(base)]
	if !found {
		return nil, 0, false
	}
	salt = int(key[len(key)-1])
	if salt >= len(hk.parts) {
		return nil, 0, false
	}
	return base, salt, true
}

// PredictedLoads is the packer's per-reducer byte prediction.
func (p *SplitPlan) PredictedLoads() []int64 { return append([]int64(nil), p.loads...) }

// HotKeys returns the split keys with their fanouts, heaviest fanout
// first then byte order — for tables and tests.
func (p *SplitPlan) HotKeys() []struct {
	Key    []byte
	Fanout int
} {
	out := make([]struct {
		Key    []byte
		Fanout int
	}, 0, len(p.hot))
	for k, hk := range p.hot {
		out = append(out, struct {
			Key    []byte
			Fanout int
		}{Key: []byte(k), Fanout: len(hk.parts)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fanout != out[j].Fanout {
			return out[i].Fanout > out[j].Fanout
		}
		return string(out[i].Key) < string(out[j].Key)
	})
	return out
}

// home is the partition Recombine appends a hot key's final record to.
func (p *SplitPlan) home(key string) int { return p.hot[key].parts[0] }

// SplitJob wraps job for the plan: the mapper wrapper salts hot keys
// with a deterministic hash of the value (preserving Job.Deterministic,
// so anticombine.Wrap composes and LazySH stays legal), the plan
// becomes the partitioner, and the reducer wrapper partially aggregates
// salted groups under their base key using newCombiner (nil:
// job.NewCombiner — the monoid requirement; jobs without one cannot be
// split). The caller must run Recombine on the job's Result to fold the
// partials into final records. Requires the default key and group
// comparators (salting appends to keys).
func SplitJob(job *mr.Job, plan *SplitPlan, newCombiner func() mr.Reducer) (*mr.Job, error) {
	if newCombiner == nil {
		newCombiner = job.NewCombiner
	}
	if newCombiner == nil {
		return nil, fmt.Errorf("partition: split needs a combiner (monoid partial aggregation) and job %q has none", job.Name)
	}
	if job.KeyCompare != nil || job.GroupCompare != nil {
		return nil, fmt.Errorf("partition: split requires the default key order (job %q sets a comparator)", job.Name)
	}
	inner := *job
	out := *job
	out.Partitioner = plan
	out.NewMapper = func() mr.Mapper { return &saltMapper{inner: inner.NewMapper(), plan: plan} }
	out.NewReducer = func() mr.Reducer {
		return &saltReducer{inner: inner.NewReducer(), agg: newCombiner(), plan: plan}
	}
	return &out, nil
}

// saltMapper rewrites hot-key emissions to their salted form.
type saltMapper struct {
	inner mr.Mapper
	plan  *SplitPlan
	buf   []byte
}

func (m *saltMapper) wrap(out mr.Emitter) mr.Emitter {
	return mr.EmitterFunc(func(k, v []byte) error {
		hk, ok := m.plan.hot[string(k)]
		if !ok {
			return out.Emit(k, v)
		}
		salt := byte(fnv64(v) % uint64(len(hk.parts)))
		m.buf = append(m.buf[:0], k...)
		m.buf = append(m.buf, saltSep, salt)
		return out.Emit(m.buf, v)
	})
}

func (m *saltMapper) Setup(info *mr.TaskInfo, out mr.Emitter) error {
	return m.inner.Setup(info, m.wrap(out))
}
func (m *saltMapper) Map(key, value []byte, out mr.Emitter) error {
	return m.inner.Map(key, value, m.wrap(out))
}
func (m *saltMapper) Cleanup(out mr.Emitter) error { return m.inner.Cleanup(m.wrap(out)) }

// saltReducer partially aggregates salted hot-key groups under their
// base key and hands everything else to the wrapped reducer.
type saltReducer struct {
	inner mr.Reducer
	agg   mr.Reducer
	plan  *SplitPlan
}

func (r *saltReducer) Setup(info *mr.TaskInfo, out mr.Emitter) error {
	if err := r.agg.Setup(info, out); err != nil {
		return err
	}
	return r.inner.Setup(info, out)
}

func (r *saltReducer) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	if base, _, ok := r.plan.saltOf(key); ok {
		// The partial record (base key, combined value) lands in this
		// salt's partition; Recombine folds the partials afterwards.
		return r.agg.Reduce(base, values, out)
	}
	return r.inner.Reduce(key, values, out)
}

func (r *saltReducer) Cleanup(out mr.Emitter) error {
	if err := r.agg.Cleanup(out); err != nil {
		return err
	}
	return r.inner.Cleanup(out)
}

// Recombine folds a split run's per-salt partial aggregates into final
// records: every output record whose key is in the plan's hot set is a
// partial by construction (all map-side records of a hot key were
// salted, so the key's only reduce path is the partial aggregation);
// the partials are grouped per key in partition order and the job's
// original Reducer runs once per hot key, appending its final records
// to the key's home partition. Output is then record-identical to an
// unsplit run of job (layout aside — compare sorted records).
func Recombine(job *mr.Job, plan *SplitPlan, res *mr.Result) error {
	if plan == nil || len(plan.hot) == 0 || res == nil || len(res.Output) == 0 {
		return nil
	}
	partials := make(map[string][][]byte)
	for pi, part := range res.Output {
		kept := part[:0]
		for _, rec := range part {
			if _, ok := plan.hot[string(rec.Key)]; ok {
				partials[string(rec.Key)] = append(partials[string(rec.Key)], rec.Value)
				continue
			}
			kept = append(kept, rec)
		}
		res.Output[pi] = kept
	}
	keys := make([]string, 0, len(partials))
	for k := range partials {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		home := plan.home(k)
		sink := mr.EmitterFunc(func(rk, rv []byte) error {
			res.Output[home] = append(res.Output[home], mr.Record{
				Key:   append([]byte(nil), rk...),
				Value: append([]byte(nil), rv...),
			})
			return nil
		})
		red := job.NewReducer()
		info := &mr.TaskInfo{
			JobName:       job.Name + "/recombine",
			Scratch:       job.Name + "/recombine",
			Partition:     home,
			NumPartitions: plan.reducers,
			Partitioner:   plan,
			KeyCompare:    bytesx.Bytes,
			GroupCompare:  bytesx.Bytes,
			Counters:      &mr.Counters{},
			FS:            iokit.NewMemFS(),
		}
		if err := red.Setup(info, sink); err != nil {
			return fmt.Errorf("partition: recombine %q setup: %w", k, err)
		}
		if err := red.Reduce([]byte(k), &sliceIter{vals: partials[k]}, sink); err != nil {
			return fmt.Errorf("partition: recombine %q: %w", k, err)
		}
		if err := red.Cleanup(sink); err != nil {
			return fmt.Errorf("partition: recombine %q cleanup: %w", k, err)
		}
	}
	return nil
}

// sliceIter adapts a value slice to mr.ValueIter.
type sliceIter struct {
	vals [][]byte
	i    int
}

func (it *sliceIter) Next() ([]byte, bool) {
	if it.i >= len(it.vals) {
		return nil, false
	}
	v := it.vals[it.i]
	it.i++
	return v, true
}

// fnv64 is FNV-1a, the deterministic value hash behind salt choice.
func fnv64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
