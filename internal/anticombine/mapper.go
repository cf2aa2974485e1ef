package anticombine

import (
	"bytes"
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
// LazySH encodings.
type antiMapper struct {
	inner mr.Mapper
	opts  Options
	info  *mr.TaskInfo

	lazyAllowed bool // false when the job is non-deterministic

	sink mr.Emitter         // capture, as the original Map's output
	pout partitionedEmitter // the current call's out, when it takes partitions

	arena   []byte
	recs    []capturedRec
	scratch []byte
	groups  []eagerGroup   // reused by buildEagerGroups
	byValue map[string]int // reused by buildEagerGroups: value → group index
	keybuf  [][]byte       // reused for eager key sets

	windowCalls int // Map calls buffered in the current cross-call window

	// Per-task counter accumulators, flushed once at Cleanup so the hot
	// path never takes the shared counters' lock.
	nOrigRecords int64
	nOrigBytes   int64
	nEager       int64
	nLazy        int64
	nPlain       int64
}

type capturedRec struct {
	keyOff, keyLen     int
	valueOff, valueLen int
	partition          int
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
	m.arena = append(m.arena, key...)
	vo := len(m.arena)
	m.arena = append(m.arena, value...)
	m.recs = append(m.recs, capturedRec{
		keyOff: ko, keyLen: len(key),
		valueOff: vo, valueLen: len(value),
	})
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
}

// Setup implements mr.Mapper. Records emitted during the original
// Setup have no input record to fall back to, so LazySH is off for them.
func (m *antiMapper) Setup(info *mr.TaskInfo, out mr.Emitter) error {
	m.info = info
	m.sink = mr.EmitterFunc(m.capture)
	m.reset()
	if err := m.inner.Setup(info, m.sink); err != nil {
		return err
	}
	m.assignPartitions()
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
	var callCost time.Duration
	if measure {
		callCost = time.Since(mapStart)
	}

	touched := m.assignPartitions()
	if measure {
		callCost = time.Since(mapStart)
	}

	// Figure 7's threshold rule: when re-executing Map+getPartition on
	// every touched reducer would cost more than T, avoid LazySH.
	underThreshold := !measure || time.Duration(touched)*callCost <= m.opts.T
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
	return m.flushWindow(out)
}

// flushWindow encodes and emits any buffered window records.
func (m *antiMapper) flushWindow(out mr.Emitter) error {
	m.windowCalls = 0
	if len(m.recs) == 0 {
		return nil
	}
	m.assignPartitions()
	if err := m.encodeAndEmit(out, nil, nil, false, false); err != nil {
		return err
	}
	m.reset()
	return nil
}

// Cleanup implements mr.Mapper; like Setup, its emissions cannot use
// LazySH.
func (m *antiMapper) Cleanup(out mr.Emitter) error {
	if m.opts.CrossCallWindow > 1 {
		if err := m.flushWindow(out); err != nil {
			return err
		}
	}
	m.reset()
	if err := m.inner.Cleanup(m.sink); err != nil {
		return err
	}
	m.assignPartitions()
	if err := m.encodeAndEmit(out, nil, nil, false, false); err != nil {
		return err
	}
	m.reset()
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

// assignPartitions computes each captured record's reduce partition and
// returns how many distinct partitions were touched.
func (m *antiMapper) assignPartitions() int {
	touched := 0
	for i := range m.recs {
		p := m.info.Partitioner.Partition(m.reckey(m.recs[i]), m.info.NumPartitions)
		m.recs[i].partition = p
		// Count distinct partitions with a linear scan: Map calls emit
		// few records, so this beats allocating a set.
		fresh := true
		for j := 0; j < i; j++ {
			if m.recs[j].partition == p {
				fresh = false
				break
			}
		}
		if fresh {
			touched++
		}
	}
	return touched
}

// emitOne is encodeAndEmit for a Map call that emitted exactly one
// record — Sort's shape (§7.1). One record is one partition and one
// sharing group, so nothing is sorted, grouped or even partitioned (the
// engine partitions what it is handed); all that is left of the adaptive
// choice is LazySH against plain, whose encodings differ only in the
// value component.
func (m *antiMapper) emitOne(out mr.Emitter, inputKey, inputValue []byte) error {
	k, v := m.reckey(m.recs[0]), m.recvalue(m.recs[0])
	m.nOrigRecords++
	m.nOrigBytes += int64(bytesx.RecordLen(k, v))
	if m.lazyAllowed && (m.opts.Strategy == LazyOnly || LazyValueSize(inputKey, inputValue) < PlainValueSize(v)) {
		m.scratch = AppendLazyValue(m.scratch[:0], inputKey, inputValue)
		m.nLazy++
	} else {
		m.scratch = AppendPlainValue(m.scratch[:0], v)
		m.nPlain++
	}
	return out.Emit(k, m.scratch)
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
	// out is a per-call argument, so what it can do is asked per call.
	m.pout, _ = out.(partitionedEmitter)
	m.nOrigRecords += int64(len(m.recs))
	for _, r := range m.recs {
		m.nOrigBytes += int64(bytesx.RecordLen(m.reckey(r), m.recvalue(r)))
	}

	// Records were captured in emission order; a stable partition sort
	// groups them without disturbing in-partition order. Calls whose
	// output is already grouped (the common one-record case) skip it.
	if !partitionsGrouped(m.recs) {
		slices.SortStableFunc(m.recs, func(a, b capturedRec) int { return a.partition - b.partition })
	}

	choice := m.callChoice(inputKey, inputValue, hasInput, underThreshold)
	for start := 0; start < len(m.recs); {
		end := start
		p := m.recs[start].partition
		for end < len(m.recs) && m.recs[end].partition == p {
			end++
		}
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
		for start := 0; start < len(m.recs); {
			end := start
			p := m.recs[start].partition
			for end < len(m.recs) && m.recs[end].partition == p {
				end++
			}
			recs := m.recs[start:end]
			groups := m.buildEagerGroups(recs, m.info.KeyCompare)
			eagerTotal += m.eagerBytes(recs, groups)
			lazyTotal += m.lazyBytes(recs, inputKey, inputValue)
			start = end
		}
		if lazyTotal < eagerTotal {
			return choiceLazy
		}
		return choiceEager
	}
	return choiceAuto
}

// eagerGroup is one (partition, value) sharing group.
type eagerGroup struct {
	rep    int   // index of the record holding the minimal key
	others []int // indices of the remaining records in the group
}

// eagerBytes is the framed size of one partition's EagerSH encoding.
func (m *antiMapper) eagerBytes(recs []capturedRec, groups []eagerGroup) int {
	total := 0
	for gi := range groups {
		g := &groups[gi]
		keysLen := 0
		for _, oi := range g.others {
			k := m.reckey(recs[oi])
			keysLen += bytesx.UvarintLen(uint64(len(k))) + len(k)
		}
		repKey := m.reckey(recs[g.rep])
		var valLen int
		if len(g.others) == 0 {
			valLen = PlainValueSize(m.recvalue(recs[g.rep]))
		} else {
			valLen = 1 + bytesx.UvarintLen(uint64(len(g.others))) + keysLen + len(m.recvalue(recs[g.rep]))
		}
		total += bytesx.UvarintLen(uint64(len(repKey))) + len(repKey) +
			bytesx.UvarintLen(uint64(valLen)) + valLen
	}
	return total
}

// lazyBytes is the framed size of one partition's LazySH encoding.
func (m *antiMapper) lazyBytes(recs []capturedRec, inputKey, inputValue []byte) int {
	lazyKey := m.reckey(recs[m.minKeyIndex(recs)])
	valLen := LazyValueSize(inputKey, inputValue)
	return bytesx.UvarintLen(uint64(len(lazyKey))) + len(lazyKey) +
		bytesx.UvarintLen(uint64(valLen)) + valLen
}

func (m *antiMapper) minKeyIndex(recs []capturedRec) int {
	cmp := m.info.KeyCompare
	minIdx := 0
	for i := range recs {
		if cmp(m.reckey(recs[i]), m.reckey(recs[minIdx])) < 0 {
			minIdx = i
		}
	}
	return minIdx
}

// emitPartition encodes and emits one partition's share of a Map call.
func (m *antiMapper) emitPartition(out mr.Emitter, recs []capturedRec, inputKey, inputValue []byte, choice encodeChoice) error {
	groups := m.buildEagerGroups(recs, m.info.KeyCompare)

	useLazy := choice == choiceLazy
	if choice == choiceAuto {
		useLazy = m.lazyBytes(recs, inputKey, inputValue) < m.eagerBytes(recs, groups)
	}

	if useLazy {
		m.scratch = m.scratch[:0]
		m.scratch = AppendLazyValue(m.scratch, inputKey, inputValue)
		m.nLazy++
		return m.emit(out, recs[0].partition, m.reckey(recs[m.minKeyIndex(recs)]), m.scratch)
	}

	for gi := range groups {
		g := &groups[gi]
		m.scratch = m.scratch[:0]
		if len(g.others) == 0 {
			m.scratch = AppendPlainValue(m.scratch, m.recvalue(recs[g.rep]))
			m.nPlain++
		} else {
			m.keybuf = m.keybuf[:0]
			for _, oi := range g.others {
				m.keybuf = append(m.keybuf, m.reckey(recs[oi]))
			}
			m.scratch = AppendEagerValue(m.scratch, m.keybuf, m.recvalue(recs[g.rep]))
			m.nEager++
		}
		if err := m.emit(out, recs[0].partition, m.reckey(recs[g.rep]), m.scratch); err != nil {
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

// buildEagerGroups groups one partition's records by identical value,
// choosing each group's minimal key as representative (Algorithm 1's
// GROUP BY getPartition(key), value).
func (m *antiMapper) buildEagerGroups(recs []capturedRec, cmp bytesx.Compare) []eagerGroup {
	// Small partitions (the overwhelmingly common case) group by linear
	// value comparison; larger ones switch to a hash index.
	if len(recs) <= 8 {
		return m.buildEagerGroupsLinear(recs, cmp)
	}
	groups := m.groups[:0]
	if m.byValue == nil {
		m.byValue = make(map[string]int, len(recs))
	}
	clear(m.byValue)
	for i := range recs {
		gi, ok := m.byValue[string(m.recvalue(recs[i]))]
		if !ok {
			m.byValue[string(m.recvalue(recs[i]))] = len(groups)
			groups = appendGroup(groups, i)
			continue
		}
		g := &groups[gi]
		if cmp(m.reckey(recs[i]), m.reckey(recs[g.rep])) < 0 {
			g.others = append(g.others, g.rep)
			g.rep = i
		} else {
			g.others = append(g.others, i)
		}
	}
	m.groups = groups
	return groups
}

// appendGroup appends a group of one record, recycling the slot (and the
// key-set slice inside it) an earlier call left beyond len, so
// steady-state encoding does not allocate.
func appendGroup(groups []eagerGroup, rep int) []eagerGroup {
	if len(groups) == cap(groups) {
		return append(groups, eagerGroup{rep: rep})
	}
	groups = groups[:len(groups)+1]
	g := &groups[len(groups)-1]
	g.rep, g.others = rep, g.others[:0]
	return groups
}

// buildEagerGroupsLinear is buildEagerGroups for small partitions,
// avoiding the map allocation.
func (m *antiMapper) buildEagerGroupsLinear(recs []capturedRec, cmp bytesx.Compare) []eagerGroup {
	groups := m.groups[:0]
outer:
	for i := range recs {
		v := m.recvalue(recs[i])
		for gi := range groups {
			g := &groups[gi]
			if bytes.Equal(m.recvalue(recs[g.rep]), v) {
				if cmp(m.reckey(recs[i]), m.reckey(recs[g.rep])) < 0 {
					g.others = append(g.others, g.rep)
					g.rep = i
				} else {
					g.others = append(g.others, i)
				}
				continue outer
			}
		}
		groups = appendGroup(groups, i)
	}
	m.groups = groups
	return groups
}

// partitionsGrouped reports whether equal partitions are already
// contiguous (trivially true for 0 or 1 records).
func partitionsGrouped(recs []capturedRec) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].partition != recs[i-1].partition {
			// Any earlier occurrence of this partition means a gap.
			for j := 0; j < i-1; j++ {
				if recs[j].partition == recs[i].partition {
					return false
				}
			}
		}
	}
	return true
}
