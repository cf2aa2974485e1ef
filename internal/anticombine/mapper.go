package anticombine

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"time"

	"repro/internal/bytesx"
	"repro/internal/mr"
)

// Names of the auxiliary counters the wrappers publish through
// mr.Counters.AddExtra.
const (
	// CounterOrigMapRecords counts records the original Map emitted
	// (before encoding) — Hadoop's pre-combine "map output records".
	CounterOrigMapRecords = "anti.origMapOutputRecords"
	// CounterOrigMapBytes is their framed size: what the Original
	// program would have shipped.
	CounterOrigMapBytes = "anti.origMapOutputBytes"
	// CounterEagerRecords counts emitted EagerSH records (with a
	// non-empty key set).
	CounterEagerRecords = "anti.eagerRecords"
	// CounterLazyRecords counts emitted LazySH records.
	CounterLazyRecords = "anti.lazyRecords"
	// CounterPlainRecords counts emitted plain records.
	CounterPlainRecords = "anti.plainRecords"
	// CounterMapReexec counts reducer-side re-executions of Map.
	CounterMapReexec = "anti.mapReexec"
	// CounterSharedSpills counts Shared spills to disk.
	CounterSharedSpills = "anti.sharedSpills"
	// CounterSharedMerges counts merges of Shared's on-disk spill runs.
	CounterSharedMerges = "anti.sharedMerges"
)

// encodeChoice is a per-partition encoding decision.
type encodeChoice int

const (
	// choiceAuto compares encoded sizes per partition (§6.1's default).
	choiceAuto encodeChoice = iota
	// choiceEager forces EagerSH/plain.
	choiceEager
	// choiceLazy forces LazySH.
	choiceLazy
)

// antiMapper is the paper's AntiMapper (Figure 7): it intercepts the
// original Map's output per call, groups it by reduce partition, and for
// each partition adaptively emits the cheapest of plain / EagerSH /
// LazySH encodings. Every buffer a call needs is kept for the next one,
// so a warm Map call allocates nothing.
type antiMapper struct {
	inner mr.Mapper
	opts  Options
	info  *mr.TaskInfo

	lazyAllowed bool // false when the job is non-deterministic

	sink mr.Emitter         // capture, as the original Map's output
	pout partitionedEmitter // the current call's out, when it takes partitions

	arena   []byte
	recs    []capturedRec
	sorted  []capturedRec // partition-scatter target, swapped with recs
	scratch []byte
	keybuf  [][]byte // reused for eager key sets

	// count holds the current call's records per partition (after the
	// scatter: each partition's end offset in recs) and touched the
	// partitions that have any, so a call visits — and reset zeroes —
	// only those.
	count   []int32
	touched []int32

	// buildEagerGroups' scratch: one partition's sharing groups, each
	// record's successor in its group's key set, and an open-addressed
	// index from value to group. A slot is live when it carries the
	// current stamp, so the index is never cleared between partitions.
	groups []eagerGroup
	next   []int32
	index  []groupSlot
	stamp  uint32

	windowCalls int // Map calls buffered in the current cross-call window

	// Per-task counter accumulators, flushed once at Cleanup so the hot
	// path never takes the shared counters' lock.
	nOrigRecords int64
	nOrigBytes   int64
	nEager       int64
	nLazy        int64
	nPlain       int64
}

// capturedRec addresses one captured record in the arena, like the
// engine's bufEntry.
type capturedRec struct {
	keyOff, keyLen     int32
	valueOff, valueLen int32
	partition          int32
}

func (m *antiMapper) reckey(r capturedRec) []byte {
	return m.arena[r.keyOff : r.keyOff+r.keyLen]
}

func (m *antiMapper) recvalue(r capturedRec) []byte {
	return m.arena[r.valueOff : r.valueOff+r.valueLen]
}

// capture implements the extended context object of Figure 7: it
// intercepts the original Map's output instead of letting it reach the
// framework.
func (m *antiMapper) capture(key, value []byte) error {
	ko := len(m.arena)
	if ko+len(key)+len(value) > math.MaxInt32 {
		return errors.New("anticombine: one Map call's output exceeds 2 GiB")
	}
	m.arena = append(m.arena, key...)
	vo := len(m.arena)
	m.arena = append(m.arena, value...)
	m.recs = append(m.recs, capturedRec{
		keyOff: int32(ko), keyLen: int32(len(key)),
		valueOff: int32(vo), valueLen: int32(len(value)),
	})
	m.nOrigRecords++
	m.nOrigBytes += int64(bytesx.RecordLen(key, value))
	return nil
}

// partitionedEmitter is the engine's map-output collector seen through
// the Emitter it hands a map task: it accepts the partition the caller
// already computed for key with the job's Partitioner, so the engine
// does not compute it a second time.
type partitionedEmitter interface {
	EmitPartitioned(partition int, key, value []byte) error
}

func (m *antiMapper) reset() {
	m.arena = m.arena[:0]
	m.recs = m.recs[:0]
	for _, p := range m.touched {
		m.count[p] = 0
	}
	m.touched = m.touched[:0]
}

// Setup implements mr.Mapper. Records emitted during the original
// Setup have no input record to fall back to, so LazySH is off for them.
func (m *antiMapper) Setup(info *mr.TaskInfo, out mr.Emitter) error {
	m.info = info
	m.sink = mr.EmitterFunc(m.capture)
	m.count = make([]int32, info.NumPartitions)
	m.reset()
	if err := m.inner.Setup(info, m.sink); err != nil {
		return err
	}
	return m.flush(out)
}

// flush encodes and emits what was captured outside a Map call, where
// no input record exists for LazySH to ship.
func (m *antiMapper) flush(out mr.Emitter) error {
	if _, err := m.assignPartitions(out); err != nil {
		return err
	}
	if err := m.encodeAndEmit(out, nil, nil, false, false); err != nil {
		return err
	}
	m.reset()
	return nil
}

// Map implements mr.Mapper, performing the per-call adaptive encoding.
// Map and getPartition costs are only measured when a threshold is set;
// with T = 0 (unlimited) the timers would be pure overhead.
func (m *antiMapper) Map(key, value []byte, out mr.Emitter) error {
	if m.opts.CrossCallWindow > 1 {
		return m.mapWindowed(key, value, out)
	}
	measure := m.opts.T > 0 && m.lazyAllowed && m.opts.Strategy == Adaptive
	var mapStart time.Time
	if measure {
		mapStart = time.Now()
	}
	if err := m.inner.Map(key, value, m.sink); err != nil {
		return err
	}
	if len(m.recs) == 1 && !measure {
		err := m.emitOne(out, key, value)
		m.reset()
		return err
	}

	touched, err := m.assignPartitions(out)
	if err != nil {
		return err
	}
	// Figure 7's threshold rule: when re-executing Map+getPartition on
	// every touched reducer would cost more than T, avoid LazySH.
	underThreshold := !measure || time.Duration(touched)*time.Since(mapStart) <= m.opts.T
	if err := m.encodeAndEmit(out, key, value, true, underThreshold); err != nil {
		return err
	}
	m.reset()
	return nil
}

// mapWindowed implements the paper's future-work extension (§9):
// sharing "not only for the input of a single Map call, but also across
// all Map calls in the same map task", bounded by a window of
// CrossCallWindow calls so buffer space stays small. Records from
// consecutive calls accumulate and are EagerSH-encoded together, so
// identical values from different inputs (e.g. WordCount's "1") share
// one record per partition. LazySH is unavailable across calls — a
// window spans several input records — so windows encode eagerly.
func (m *antiMapper) mapWindowed(key, value []byte, out mr.Emitter) error {
	if err := m.inner.Map(key, value, m.sink); err != nil {
		return err
	}
	m.windowCalls++
	if m.windowCalls < m.opts.CrossCallWindow {
		return nil
	}
	m.windowCalls = 0
	return m.flush(out)
}

// Cleanup implements mr.Mapper; like Setup, its emissions cannot use
// LazySH.
func (m *antiMapper) Cleanup(out mr.Emitter) error {
	// Whatever an unfinished cross-call window still holds goes first.
	if err := m.flush(out); err != nil {
		return err
	}
	if err := m.inner.Cleanup(m.sink); err != nil {
		return err
	}
	if err := m.flush(out); err != nil {
		return err
	}
	m.flushCounters()
	return nil
}

// flushCounters publishes the task's accumulated statistics.
func (m *antiMapper) flushCounters() {
	c := m.info.Counters
	c.AddExtra(CounterOrigMapRecords, m.nOrigRecords)
	c.AddExtra(CounterOrigMapBytes, m.nOrigBytes)
	c.AddExtra(CounterEagerRecords, m.nEager)
	c.AddExtra(CounterLazyRecords, m.nLazy)
	c.AddExtra(CounterPlainRecords, m.nPlain)
	m.nOrigRecords, m.nOrigBytes, m.nEager, m.nLazy, m.nPlain = 0, 0, 0, 0, 0
}

// assignPartitions computes each captured record's reduce partition,
// counting records per partition, and returns how many distinct
// partitions were touched. A partition outside the job's range cannot
// be counted: the record is handed on as it is, for the engine to
// refuse in its own words.
func (m *antiMapper) assignPartitions(out mr.Emitter) (int, error) {
	// out is a per-call argument, so what it can do is asked per call.
	m.pout, _ = out.(partitionedEmitter)
	n := m.info.NumPartitions
	for i := range m.recs {
		r := &m.recs[i]
		p := m.info.Partitioner.Partition(m.reckey(*r), n)
		if p < 0 || p >= len(m.count) {
			m.scratch = AppendPlainValue(m.scratch[:0], m.recvalue(*r))
			if err := m.emit(out, p, m.reckey(*r), m.scratch); err != nil {
				return 0, err
			}
			return 0, fmt.Errorf("anticombine: partitioner returned %d for %d partitions", p, n)
		}
		r.partition = int32(p)
		if m.count[p] == 0 {
			m.touched = append(m.touched, int32(p))
		}
		m.count[p]++
	}
	return len(m.touched), nil
}

// emitOne is encodeAndEmit for a Map call that emitted exactly one
// record — Sort's shape (§7.1). One record is one partition and one
// sharing group, so nothing is sorted, grouped or even partitioned (the
// engine partitions what it is handed); all that is left of the adaptive
// choice is LazySH against plain, whose encodings differ only in the
// value component.
func (m *antiMapper) emitOne(out mr.Emitter, inputKey, inputValue []byte) error {
	k, v := m.reckey(m.recs[0]), m.recvalue(m.recs[0])
	if m.lazyAllowed && (m.opts.Strategy == LazyOnly || LazyValueSize(inputKey, inputValue) < PlainValueSize(v)) {
		m.scratch = AppendLazyValue(m.scratch[:0], inputKey, inputValue)
		m.nLazy++
	} else {
		m.scratch = AppendPlainValue(m.scratch[:0], v)
		m.nPlain++
	}
	return out.Emit(k, m.scratch)
}

// scatterByPartition orders recs by partition, ascending, keeping
// emission order within a partition — the stable counting scatter of the
// engine's sortByPartitionKey, over the touched partitions only — and
// leaves each touched partition's end offset in count.
func (m *antiMapper) scatterByPartition() {
	if len(m.touched) == 1 {
		return // one bucket, whose count is its end offset already
	}
	slices.Sort(m.touched)
	sum := int32(0)
	for _, p := range m.touched {
		m.count[p], sum = sum, sum+m.count[p]
	}
	if cap(m.sorted) < len(m.recs) {
		m.sorted = make([]capturedRec, 0, cap(m.recs))
	}
	sorted := m.sorted[:len(m.recs)]
	for _, r := range m.recs {
		sorted[m.count[r.partition]] = r
		m.count[r.partition]++
	}
	m.recs, m.sorted = sorted, m.recs[:0]
}

// encodeAndEmit realizes Algorithm 1 / Algorithm 3 with the per-partition
// adaptive choice of §6.1: group this call's records by partition, build
// the EagerSH encoding (grouped by value within the partition), compare
// its size against the LazySH encoding, and emit the smaller. Ties favor
// EagerSH so jobs with one output per input (e.g. Sort, §7.1) degrade to
// plain records instead of paying Map re-execution. With
// Options.UniformChoice, one decision covers the whole Map call (the
// DESIGN.md ablation for the paper's per-partition argument in §6.1).
func (m *antiMapper) encodeAndEmit(out mr.Emitter, inputKey, inputValue []byte, hasInput, underThreshold bool) error {
	if len(m.recs) == 0 {
		return nil
	}
	m.scatterByPartition()
	choice := m.callChoice(inputKey, inputValue, hasInput, underThreshold)
	start := int32(0)
	for _, p := range m.touched {
		end := m.count[p]
		if err := m.emitPartition(out, m.recs[start:end], inputKey, inputValue, choice); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// callChoice derives the encoding decision that applies to every
// partition of this Map call, or choiceAuto for per-partition decisions.
func (m *antiMapper) callChoice(inputKey, inputValue []byte, hasInput, underThreshold bool) encodeChoice {
	lazyPossible := hasInput && m.lazyAllowed
	switch {
	case !lazyPossible:
		return choiceEager
	case m.opts.Strategy == LazyOnly:
		return choiceLazy
	case m.opts.Strategy == EagerOnly, !underThreshold:
		return choiceEager
	case m.opts.UniformChoice:
		// One decision for the whole call: total eager bytes vs total
		// lazy bytes across all touched partitions.
		var eagerTotal, lazyTotal int
		start := int32(0)
		for _, p := range m.touched {
			recs := m.recs[start:m.count[p]]
			groups := m.buildEagerGroups(recs)
			eagerTotal += m.eagerBytes(recs, groups)
			lazyTotal += lazyBytes(m.reckey(recs[m.minKeyIndex(recs, groups)]), inputKey, inputValue)
			start = m.count[p]
		}
		if lazyTotal < eagerTotal {
			return choiceLazy
		}
		return choiceEager
	}
	return choiceAuto
}

// eagerGroup is one (partition, value) sharing group: the record holding
// its minimal key, and the remaining records — the group's key set — as
// a list threaded through antiMapper.next, in the order they joined.
type eagerGroup struct {
	hash       uint64 // of the shared value
	rep        int32
	head, tail int32 // first and last of the others; head < 0 when none
	others     int32
	keysLen    int32 // encoded size of the others' keys
}

// groupSlot is one slot of the value → group index.
type groupSlot struct {
	stamp uint32
	group int32
}

// groupSeed keys every antiMapper's value index.
var groupSeed = maphash.MakeSeed()

// eagerBytes is the framed size of one partition's EagerSH encoding.
func (m *antiMapper) eagerBytes(recs []capturedRec, groups []eagerGroup) int {
	total := 0
	for gi := range groups {
		g := &groups[gi]
		rep := recs[g.rep]
		valLen := 1 + int(rep.valueLen) // plain
		if g.others > 0 {
			valLen += bytesx.UvarintLen(uint64(g.others)) + int(g.keysLen)
		}
		total += bytesx.UvarintLen(uint64(rep.keyLen)) + int(rep.keyLen) +
			bytesx.UvarintLen(uint64(valLen)) + valLen
	}
	return total
}

// lazyBytes is the framed size of one partition's LazySH record.
func lazyBytes(lazyKey, inputKey, inputValue []byte) int {
	valLen := LazyValueSize(inputKey, inputValue)
	return bytesx.UvarintLen(uint64(len(lazyKey))) + len(lazyKey) +
		bytesx.UvarintLen(uint64(valLen)) + valLen
}

// minKeyIndex finds the record holding one partition's minimal key, the
// first of equals, among the groups' representatives — each already the
// first minimum of its group.
func (m *antiMapper) minKeyIndex(recs []capturedRec, groups []eagerGroup) int32 {
	cmp := m.info.KeyCompare
	min := groups[0].rep
	for _, g := range groups[1:] {
		if c := cmp(m.reckey(recs[g.rep]), m.reckey(recs[min])); c < 0 || c == 0 && g.rep < min {
			min = g.rep
		}
	}
	return min
}

// emitPartition encodes and emits one partition's share of a Map call.
func (m *antiMapper) emitPartition(out mr.Emitter, recs []capturedRec, inputKey, inputValue []byte, choice encodeChoice) error {
	p := int(recs[0].partition)
	groups := m.buildEagerGroups(recs)
	if choice != choiceEager {
		lazyKey := m.reckey(recs[m.minKeyIndex(recs, groups)])
		if choice == choiceLazy || lazyBytes(lazyKey, inputKey, inputValue) < m.eagerBytes(recs, groups) {
			m.scratch = AppendLazyValue(m.scratch[:0], inputKey, inputValue)
			m.nLazy++
			return m.emit(out, p, lazyKey, m.scratch)
		}
	}

	for gi := range groups {
		g := &groups[gi]
		value := m.recvalue(recs[g.rep])
		if g.others == 0 {
			m.scratch = AppendPlainValue(m.scratch[:0], value)
			m.nPlain++
		} else {
			m.keybuf = m.keybuf[:0]
			for i := g.head; i >= 0; i = m.next[i] {
				m.keybuf = append(m.keybuf, m.reckey(recs[i]))
			}
			m.scratch = AppendEagerValue(m.scratch[:0], m.keybuf, value)
			m.nEager++
		}
		if err := m.emit(out, p, m.reckey(recs[g.rep]), m.scratch); err != nil {
			return err
		}
	}
	return nil
}

// emit hands the engine one encoded record of partition p, with p when
// the engine's collector takes it.
func (m *antiMapper) emit(out mr.Emitter, p int, key, value []byte) error {
	if m.pout != nil {
		return m.pout.EmitPartitioned(p, key, value)
	}
	return out.Emit(key, value)
}

// buildEagerGroups groups one partition's records by identical value, in
// order of first appearance, choosing each group's minimal key as
// representative (Algorithm 1's GROUP BY getPartition(key), value). A
// record's group is the previous record's when the values match — a Map
// call mostly repeats one value — and is looked up in the value index
// otherwise.
func (m *antiMapper) buildEagerGroups(recs []capturedRec) []eagerGroup {
	if len(m.index) < 2*len(recs) {
		size := 64
		for size < 2*len(recs) {
			size *= 2
		}
		m.index, m.stamp = make([]groupSlot, size), 0
	}
	if m.stamp++; m.stamp == 0 {
		clear(m.index)
		m.stamp = 1
	}
	if cap(m.next) < len(recs) {
		m.next = make([]int32, 0, cap(m.recs))
	}
	m.next = m.next[:len(recs)]
	next := m.next
	mask := uint64(len(m.index) - 1)
	cmp := m.info.KeyCompare
	groups := m.groups[:0]
	last := -1 // the previous record's group
	for i := range recs {
		v := m.recvalue(recs[i])
		gi := last
		if gi < 0 || !bytes.Equal(m.recvalue(recs[groups[gi].rep]), v) {
			h := maphash.Bytes(groupSeed, v)
			slot := h & mask
			for gi = -1; m.index[slot].stamp == m.stamp; slot = (slot + 1) & mask {
				if g := &groups[m.index[slot].group]; g.hash == h && bytes.Equal(m.recvalue(recs[g.rep]), v) {
					gi = int(m.index[slot].group)
					break
				}
			}
			if gi < 0 {
				gi = len(groups)
				m.index[slot] = groupSlot{stamp: m.stamp, group: int32(gi)}
				groups = append(groups, eagerGroup{hash: h, rep: int32(i), head: -1, tail: -1})
				last = gi
				continue
			}
		}
		last = gi
		// The record with the larger key joins the key set.
		g := &groups[gi]
		other := int32(i)
		if cmp(m.reckey(recs[i]), m.reckey(recs[g.rep])) < 0 {
			other, g.rep = g.rep, other
		}
		next[other] = -1
		if g.head < 0 {
			g.head = other
		} else {
			next[g.tail] = other
		}
		g.tail = other
		g.others++
		g.keysLen += int32(bytesx.UvarintLen(uint64(recs[other].keyLen))) + recs[other].keyLen
	}
	m.groups = groups
	return groups
}
