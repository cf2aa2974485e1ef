package anticombine

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/workloads/extremes"
)

// The harness below drives one antiMapper the way a map task does —
// Setup, one Map per input record, Cleanup — without the engine, so a
// test scripts what every call of the original Map emits and sees every
// record the AntiMapper hands on, with its partition, in order.

// emitted is one record the AntiMapper handed the engine.
type emitted struct {
	partition  int // -1 from an Emitter that is not told
	key, value string
}

// partRecorder stands in for the engine's collector: like it, it routes
// the records it is handed without a partition.
type partRecorder struct {
	info *mr.TaskInfo
	out  []emitted
}

func (r *partRecorder) Emit(k, v []byte) error {
	return r.EmitPartitioned(r.info.Partitioner.Partition(k, r.info.NumPartitions), k, v)
}

func (r *partRecorder) EmitPartitioned(p int, k, v []byte) error {
	r.out = append(r.out, emitted{p, string(k), string(v)})
	return nil
}

// plainRecorder is an Emitter that takes no partitions, as a decorated
// collector (the benchmark's tracer) is.
type plainRecorder struct{ rec *partRecorder }

func (r plainRecorder) Emit(k, v []byte) error { return r.rec.EmitPartitioned(-1, k, v) }

// scriptMapper is the original Map of the harness: call i's input value
// is i in decimal, then padding — input records of every length, so
// that the adaptive choice goes both ways — and it emits calls[i].
type scriptMapper struct {
	setup, cleanup []pair
	calls          [][]pair
	padding        []int // per call; none when shorter than calls
}

func (m *scriptMapper) input(i int) []byte {
	in := []byte(strconv.Itoa(i) + "|")
	if i < len(m.padding) {
		in = append(in, strings.Repeat("x", m.padding[i])...)
	}
	return in
}

func emitAll(out mr.Emitter, recs []pair) error {
	for _, p := range recs {
		if err := out.Emit(p.key, p.value); err != nil {
			return err
		}
	}
	return nil
}

func (m *scriptMapper) Setup(_ *mr.TaskInfo, out mr.Emitter) error { return emitAll(out, m.setup) }
func (m *scriptMapper) Cleanup(out mr.Emitter) error               { return emitAll(out, m.cleanup) }
func (m *scriptMapper) Map(_, value []byte, out mr.Emitter) error {
	idx, _, _ := bytes.Cut(value, []byte("|"))
	i, err := strconv.Atoi(string(idx))
	if err != nil {
		return err
	}
	return emitAll(out, m.calls[i])
}

// runScript runs the script through an antiMapper.
func runScript(m *scriptMapper, opts Options, lazyAllowed bool, info *mr.TaskInfo, out mr.Emitter) error {
	am := &antiMapper{inner: m, opts: opts, lazyAllowed: lazyAllowed}
	if err := am.Setup(info, out); err != nil {
		return err
	}
	for i := range m.calls {
		if err := am.Map([]byte("in"), m.input(i), out); err != nil {
			return err
		}
	}
	return am.Cleanup(out)
}

// refMapper is the reference AntiMapper: Algorithms 1 and 3 with the
// adaptive choice of §6.1, written the slow way — a stable comparison
// sort by partition, a scan of the groups per record, sizes taken from
// the encoded bytes. What it emits is the sequence the antiMapper must
// reproduce.
type refMapper struct {
	opts        Options
	lazyAllowed bool
	info        *mr.TaskInfo
	out         []emitted
	counts      map[string]int64
}

type refGroup struct {
	rep    int
	others []int
}

// encodings returns one partition's EagerSH records and its LazySH
// record.
func (r *refMapper) encodings(recs []pair, inputKey, inputValue []byte) (eager []pair, lazy pair) {
	cmp := r.info.KeyCompare
	var groups []refGroup
	min := 0
next:
	for i, rec := range recs {
		if cmp(rec.key, recs[min].key) < 0 {
			min = i
		}
		for gi := range groups {
			g := &groups[gi]
			if bytes.Equal(recs[g.rep].value, rec.value) {
				if cmp(rec.key, recs[g.rep].key) < 0 {
					g.others, g.rep = append(g.others, g.rep), i
				} else {
					g.others = append(g.others, i)
				}
				continue next
			}
		}
		groups = append(groups, refGroup{rep: i})
	}
	for _, g := range groups {
		rep := recs[g.rep]
		if len(g.others) == 0 {
			eager = append(eager, pair{rep.key, AppendPlainValue(nil, rep.value)})
			continue
		}
		var keys [][]byte
		for _, o := range g.others {
			keys = append(keys, recs[o].key)
		}
		eager = append(eager, pair{rep.key, AppendEagerValue(nil, keys, rep.value)})
	}
	return eager, pair{recs[min].key, AppendLazyValue(nil, inputKey, inputValue)}
}

func framedSize(recs ...pair) int {
	n := 0
	for _, p := range recs {
		n += bytesx.RecordLen(p.key, p.value)
	}
	return n
}

// encode emits one batch of captured records: a Map call's, with its
// input record, or what Setup, Cleanup or a cross-call window captured.
func (r *refMapper) encode(recs []pair, inputKey, inputValue []byte, hasInput bool) {
	type routed struct {
		pair
		partition int
	}
	all := make([]routed, len(recs))
	for i, p := range recs {
		all[i] = routed{p, r.info.Partitioner.Partition(p.key, r.info.NumPartitions)}
		r.counts[CounterOrigMapRecords]++
		r.counts[CounterOrigMapBytes] += int64(bytesx.RecordLen(p.key, p.value))
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].partition < all[j].partition })
	var parts [][]pair
	var ids []int
	for i, rec := range all {
		if i == 0 || rec.partition != all[i-1].partition {
			parts, ids = append(parts, nil), append(ids, rec.partition)
		}
		parts[len(parts)-1] = append(parts[len(parts)-1], rec.pair)
	}

	lazyPossible := hasInput && r.lazyAllowed
	forceLazy := lazyPossible && r.opts.Strategy == LazyOnly
	auto := lazyPossible && r.opts.Strategy == Adaptive
	if auto && r.opts.UniformChoice {
		var eagerTotal, lazyTotal int
		for _, part := range parts {
			eager, lazy := r.encodings(part, inputKey, inputValue)
			eagerTotal += framedSize(eager...)
			lazyTotal += framedSize(lazy)
		}
		auto, forceLazy = false, lazyTotal < eagerTotal
	}
	for i, part := range parts {
		eager, lazy := r.encodings(part, inputKey, inputValue)
		if forceLazy || auto && framedSize(lazy) < framedSize(eager...) {
			r.out = append(r.out, emitted{ids[i], string(lazy.key), string(lazy.value)})
			r.counts[CounterLazyRecords]++
			continue
		}
		for _, e := range eager {
			r.out = append(r.out, emitted{ids[i], string(e.key), string(e.value)})
			if e.value[0] == EncPlain {
				r.counts[CounterPlainRecords]++
			} else {
				r.counts[CounterEagerRecords]++
			}
		}
	}
}

func (r *refMapper) run(m *scriptMapper) {
	r.counts = map[string]int64{}
	r.encode(m.setup, nil, nil, false)
	var window []pair
	for i, call := range m.calls {
		if r.opts.CrossCallWindow > 1 {
			window = append(window, call...)
			if (i+1)%r.opts.CrossCallWindow == 0 {
				r.encode(window, nil, nil, false)
				window = nil
			}
			continue
		}
		r.encode(call, []byte("in"), m.input(i), true)
	}
	r.encode(window, nil, nil, false)
	r.encode(m.cleanup, nil, nil, false)
}

// foldCompare orders keys ignoring ASCII case: a sort comparator under
// which distinct keys compare equal, so "the first of equal minimal
// keys" is observable in the bytes emitted.
func foldCompare(a, b []byte) int { return bytes.Compare(bytes.ToLower(a), bytes.ToLower(b)) }

// genScript draws a task's worth of Map calls: 0–500 records each (most
// of them small), keys and values from pools small enough that both
// repeat within a call.
func genScript(rng *rand.Rand, secondary bool) *scriptMapper {
	nKeys, nValues := 1+rng.Intn(80), 1+rng.Intn(6)
	newKey := func() []byte {
		if secondary {
			return extremes.Key(int32(rng.Intn(nKeys)), int32(rng.Intn(5)))
		}
		k := []byte(fmt.Sprintf("key%03d", rng.Intn(nKeys)))
		if rng.Intn(2) == 0 {
			k[0] = 'K'
		}
		return k
	}
	batch := func(n int) []pair {
		recs := make([]pair, n)
		for i := range recs {
			recs[i] = pair{newKey(), []byte(fmt.Sprintf("value-%d", rng.Intn(nValues)))}
			if rng.Intn(4) == 0 {
				recs[i].value = []byte(fmt.Sprintf("solo-%d", rng.Int()))
			}
		}
		return recs
	}
	m := &scriptMapper{setup: batch(rng.Intn(4)), cleanup: batch(rng.Intn(4))}
	for c, calls := 0, 1+rng.Intn(12); c < calls; c++ {
		n := rng.Intn(12)
		switch rng.Intn(10) {
		case 0:
			n = rng.Intn(501)
		case 1:
			n = 60
		}
		m.calls = append(m.calls, batch(n))
		m.padding = append(m.padding, rng.Intn(40*(1+n/8)))
	}
	return m
}

// TestAntiMapperMatchesReference is the contract of the map-side pass:
// whatever a task's Map calls emit — no records or hundreds, one
// partition or 64, keys and values repeating, a sort comparator under
// which different keys tie — and whichever options are set, the
// AntiMapper hands the engine the records the reference does, in the
// same order, each with its partition, and counts them the same.
func TestAntiMapperMatchesReference(t *testing.T) {
	configs := []Options{
		{Strategy: Adaptive},
		{Strategy: EagerOnly},
		{Strategy: LazyOnly},
		{Strategy: Adaptive, UniformChoice: true},
		{Strategy: Adaptive, CrossCallWindow: 3},
		{Strategy: Adaptive, T: time.Hour}, // timed, never over the threshold
	}
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		opts := configs[trial%len(configs)]
		lazyAllowed := opts.Strategy != EagerOnly && trial%7 != 0
		secondary := trial%3 == 1
		info := &mr.TaskInfo{
			NumPartitions: 1 + rng.Intn(64), Partitioner: mr.HashPartitioner{},
			KeyCompare: foldCompare, Counters: &mr.Counters{},
		}
		if secondary {
			info.KeyCompare, info.Partitioner = bytesx.Bytes, extremes.NewJob(1).Partitioner
		}
		script := genScript(rng, secondary)
		ref := &refMapper{opts: opts, lazyAllowed: lazyAllowed, info: info}
		ref.run(script)

		rec := &partRecorder{info: info}
		var out mr.Emitter = rec
		if trial%2 == 1 {
			out = plainRecorder{rec}
			for i := range ref.out {
				ref.out[i].partition = -1
			}
		}
		if err := runScript(script, opts, lazyAllowed, info, out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := rec.out
		if len(got) != len(ref.out) {
			t.Fatalf("trial %d (%+v): %d records emitted, reference emits %d", trial, opts, len(got), len(ref.out))
		}
		for i := range got {
			if got[i] != ref.out[i] {
				t.Fatalf("trial %d (%+v) record %d: got %q, reference %q", trial, opts, i, got[i], ref.out[i])
			}
		}
		for name, want := range ref.counts {
			if n := info.Counters.Extra(name); n != want {
				t.Errorf("trial %d (%+v): %s = %d, reference counts %d", trial, opts, name, n, want)
			}
		}
	}
}

// somePartitioner is a HashPartitioner that routes one key out of range.
type somePartitioner struct {
	bad string
	to  int
}

func (p somePartitioner) Partition(key []byte, n int) int {
	if string(key) == p.bad {
		return p.to
	}
	return mr.HashPartitioner{}.Partition(key, n)
}

// TestOutOfRangePartitionInMultiRecordCall: the AntiMapper counts a
// call's records per partition, so one record routed out of range in the
// middle of a call that touches several partitions must come back as the
// engine's error, not as an index panic — below zero as well as above.
func TestOutOfRangePartitionInMultiRecordCall(t *testing.T) {
	for _, to := range []int{99, -1} {
		job := prefixJob(somePartitioner{bad: "sigm", to: to}, 4)
		_, err := mr.Run(Wrap(job, AdaptiveInf()), queries(60))
		if want := fmt.Sprintf("partitioner returned %d for 4 partitions", to); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("partition %d: job error = %v, want %q", to, err, want)
		}
		// An Emitter that checks nothing does not make the partition legal.
		script := &scriptMapper{calls: [][]pair{{{[]byte("a"), nil}, {[]byte("sigm"), nil}, {[]byte("b"), nil}}}}
		info := &mr.TaskInfo{NumPartitions: 4, Partitioner: job.Partitioner, KeyCompare: bytesx.Bytes, Counters: &mr.Counters{}}
		if err := runScript(script, AdaptiveInf(), true, info, plainRecorder{&partRecorder{}}); err == nil {
			t.Errorf("partition %d: an unchecked Emitter let the call through", to)
		}
	}
}

// wordCountCall is WordCount's Map call at the benchmark's shape: n
// distinct words, all with the value "1".
func wordCountCall(n int) []pair {
	recs := make([]pair, n)
	for i := range recs {
		recs[i] = pair{[]byte(fmt.Sprintf("word%04d", (i*7919)%9973)), []byte("1")}
	}
	return recs
}

func newWarmMapper(tb testing.TB, recs []pair, partitions int, out mr.Emitter) *antiMapper {
	am := &antiMapper{inner: &scriptMapper{calls: [][]pair{recs}}, opts: AdaptiveInf(), lazyAllowed: true}
	info := &mr.TaskInfo{NumPartitions: partitions, Partitioner: mr.HashPartitioner{}, KeyCompare: bytesx.Bytes, Counters: &mr.Counters{}}
	if err := am.Setup(info, out); err != nil {
		tb.Fatal(err)
	}
	return am
}

// discardPartitioned is a collector that keeps nothing.
type discardPartitioned struct{ discardEmitter }

func (discardPartitioned) EmitPartitioned(int, []byte, []byte) error { return nil }

// TestWarmMapCallDoesNotAllocate: a Map call of WordCount's shape — 60
// records over 8 partitions — costs the AntiMapper no allocation once
// its buffers have seen one.
func TestWarmMapCallDoesNotAllocate(t *testing.T) {
	var out mr.Emitter = discardPartitioned{}
	am := newWarmMapper(t, wordCountCall(60), 8, out)
	key, value := []byte("in"), []byte("0|a line of sixty words is some four hundred bytes long")
	allocs := testing.AllocsPerRun(100, func() {
		if err := am.Map(key, value, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm 60-record Map call costs %v allocations, want 0", allocs)
	}
}

// BenchmarkAntiMapCall is one warm Map call through the AntiMapper —
// capture, assign partitions, scatter, group by value, encode, emit —
// for calls of 1 to 500 records over 8 partitions.
func BenchmarkAntiMapCall(b *testing.B) {
	for _, n := range []int{1, 8, 60, 500} {
		b.Run(fmt.Sprintf("%drec", n), func(b *testing.B) {
			var out mr.Emitter = discardPartitioned{}
			am := newWarmMapper(b, wordCountCall(n), 8, out)
			key, value := []byte("in"), []byte("0|"+strings.Repeat("x", 8*n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := am.Map(key, value, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// appendSum is a sum combiner that allocates nothing per call, so that
// what a run through the transformed combiner allocates is the
// AntiReducer's own.
type appendSum struct {
	mr.ReducerBase
	buf []byte
}

func (c *appendSum) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	total := int64(0)
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return err
		}
		total += n
	}
	c.buf = strconv.AppendInt(c.buf[:0], total, 10)
	return out.Emit(key, c.buf)
}

// combinerRun is one partition's sorted spill run of a WordCount map
// task under AdaptiveSH, cut into the key groups the engine's spill-time
// combine would hand the transformed combiner.
type combinerRun struct {
	keys   [][]byte
	values [][][]byte
}

func newCombinerRun(tb testing.TB, lines int) *combinerRun {
	script := &scriptMapper{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < lines; i++ {
		call := make([]pair, 60)
		for j := range call {
			call[j] = pair{[]byte(fmt.Sprintf("word%04d", rng.Intn(2000))), []byte("1")}
		}
		script.calls = append(script.calls, call)
	}
	info := &mr.TaskInfo{NumPartitions: 8, Partitioner: mr.HashPartitioner{}, KeyCompare: bytesx.Bytes, Counters: &mr.Counters{}}
	rec := &partRecorder{info: info}
	// A line of text is longer than its words' EagerSH records; the
	// script's stand-in input is not, so LazySH is kept out by hand.
	if err := runScript(script, Adaptive0(), false, info, rec); err != nil {
		tb.Fatal(err)
	}
	var run []emitted
	for _, e := range rec.out {
		if e.partition == 0 {
			run = append(run, e)
		}
	}
	sort.SliceStable(run, func(i, j int) bool { return run[i].key < run[j].key })
	cr := &combinerRun{}
	for i, e := range run {
		if i == 0 || e.key != run[i-1].key {
			cr.keys, cr.values = append(cr.keys, []byte(e.key)), append(cr.values, nil)
		}
		cr.values[len(cr.values)-1] = append(cr.values[len(cr.values)-1], []byte(e.value))
	}
	return cr
}

// combine runs one transformed-combiner instance over the run, as the
// engine's spill-time combine does.
func (cr *combinerRun) combine(r *antiReducer, info *mr.TaskInfo, it *sliceIter, out mr.Emitter) error {
	if err := r.Setup(info, out); err != nil {
		return err
	}
	for i, key := range cr.keys {
		*it = sliceIter{vals: cr.values[i]}
		if err := r.Reduce(key, it, out); err != nil {
			return err
		}
	}
	return r.Cleanup(out)
}

func newTestCombiner(sum *appendSum) *antiReducer {
	return &antiReducer{
		inner:       sum,
		newMapper:   func() mr.Mapper { return framedMapper{} },
		newCombiner: func() mr.Reducer { return sum },
		combineMode: true,
	}
}

// TestLaterCombinerInstancesDoNotAllocate: the engine creates a
// transformed combiner per partition per spill. The first ones grow
// Shared's buffers (an entry slot's value list grows when a key with
// more values lands in it, until every slot holds a combine batch);
// every later one — Setup, the run's Reduce calls, Cleanup — works in
// what the one before it left, and allocates nothing.
func TestLaterCombinerInstancesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// AllocsPerRun runs on one P, and a sync.Pool forgets what it holds
	// when GOMAXPROCS changes: warm up on one P too.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cr := newCombinerRun(t, 300)
	info := harnessInfo(bytesx.Bytes, iokit.NewMemFS())
	var out mr.Emitter = discardEmitter{}
	sum, it := &appendSum{}, &sliceIter{}
	const warm, runs = 64, 20
	instances := make([]*antiReducer, warm+1+runs) // AllocsPerRun warms up once more
	for i := range instances {
		instances[i] = newTestCombiner(sum)
	}
	next := 0
	for ; next < warm; next++ {
		if err := cr.combine(instances[next], info, it, out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if err := cr.combine(instances[next], info, it, out); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("a later combiner instance costs %v allocations over a run, want 0", allocs)
	}
}

// BenchmarkAntiCombineRun is one sorted run of WordCount's AdaptiveSH
// records through the transformed combiner, a fresh instance per
// iteration as in the engine's spill-time combine.
func BenchmarkAntiCombineRun(b *testing.B) {
	cr := newCombinerRun(b, 300)
	info := harnessInfo(bytesx.Bytes, iokit.NewMemFS())
	var out mr.Emitter = discardEmitter{}
	sum, it := &appendSum{}, &sliceIter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cr.combine(newTestCombiner(sum), info, it, out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPooledSharedStartsEmpty: a Shared's buffers go to the next Shared
// when it closes, whatever state it closes in. An instance that dies
// mid-task with entries in memory and spill runs open must hand on
// neither — the next instance starts empty, computes what it would on
// fresh buffers, and no handle or spill file outlives either.
func TestPooledSharedStartsEmpty(t *testing.T) {
	cr := newCombinerRun(t, 60)
	want := map[string]int{}
	collect := func(into map[string]int) mr.Emitter {
		return mr.EmitterFunc(func(k, v []byte) error {
			dec, err := DecodeValue(v)
			if err != nil {
				return err
			}
			n, err := strconv.Atoi(string(dec.Value))
			into[string(k)] += n
			return err
		})
	}
	var it sliceIter
	if err := cr.combine(newTestCombiner(&appendSum{}), harnessInfo(bytesx.Bytes, iokit.NewMemFS()), &it, collect(want)); err != nil {
		t.Fatal(err)
	}

	mem := iokit.NewMemFS()
	track := &iokit.TrackFS{Inner: mem}
	info := harnessInfo(bytesx.Bytes, track)
	for round := 0; round < 8; round++ {
		// A reduce-side instance over LazySH records that regenerate keys
		// far ahead: it spills, and fails with runs open and memory full.
		var stream []pair
		for i := 0; i < 30; i++ {
			var input []byte
			for j := i; j < i+20; j += 2 {
				input = bytesx.AppendRecord(input, []byte(fmt.Sprintf("word%04d", 2*j)), []byte("7"))
			}
			stream = append(stream, pair{[]byte(fmt.Sprintf("word%04d", 2*i)), AppendLazyValue(nil, nil, input)})
		}
		dying := &antiReducer{
			inner:     &recordingReducer{failAt: 12},
			newMapper: func() mr.Mapper { return framedMapper{} },
			opts:      Options{SharedMemLimitBytes: 64, SharedMergeFactor: 3},
		}
		if err := feed(dying, info, stream, discardEmitter{}); err != errInnerReduce {
			t.Fatalf("round %d: dying instance: %v", round, err)
		}
		if dying.shared.Spills() == 0 {
			t.Fatalf("round %d: setup: the dying instance never spilled", round)
		}

		// What it left in the pool is empty, slot for slot.
		if box, _ := sharedPool.Get().(*sharedBufs); box != nil { // the race detector drops some Puts
			if len(box.blocks)+len(box.emptied) != 0 || box.keys.Len() != 0 {
				t.Errorf("round %d: pooled buffers not empty: %d blocks, %d emptied, %d keys",
					round, len(box.blocks), len(box.emptied), box.keys.Len())
			}
			for i := range box.ents {
				if box.keys.Live(int32(i)) {
					t.Fatalf("round %d: pooled key index still holds id %d", round, i)
				}
			}
			sharedPool.Put(box)
		}

		next := newTestCombiner(&appendSum{})
		if err := next.Setup(info, discardEmitter{}); err != nil {
			t.Fatal(err)
		}
		if !next.shared.Empty() {
			t.Fatalf("round %d: an instance on pooled buffers starts with content", round)
		}
		next.shared.Close()
		got := map[string]int{}
		if err := cr.combine(newTestCombiner(&appendSum{}), info, &it, collect(got)); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: sums on pooled buffers differ from sums on fresh ones", round)
		}
	}
	if n := track.OpenHandles(); n != 0 {
		t.Errorf("%d file handles left open", n)
	}
	for _, name := range listFiles(t, mem) {
		if strings.Contains(name, "/anti/") {
			t.Errorf("Shared file left behind: %s", name)
		}
	}
}
