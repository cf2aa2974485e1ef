package anticombine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/workloads/extremes"
)

// The harness below drives one antiReducer the way a reduce task does —
// Setup, one Reduce per key group of a sorted encoded stream, Cleanup —
// without the engine, so a test chooses every record's encoding and
// sees every call the original Reduce receives.

type pair struct{ key, value []byte }

// framedMapper is the reducer-side original Map of the harness: a
// LazySH record's input value is the framed list of pairs its Map call
// emitted, so re-execution replays them.
type framedMapper struct{ mr.MapperBase }

func (framedMapper) Map(_, value []byte, out mr.Emitter) error {
	for len(value) > 0 {
		k, v, n, err := bytesx.DecodeRecord(value)
		if err != nil {
			return err
		}
		if err := out.Emit(k, v); err != nil {
			return err
		}
		value = value[n:]
	}
	return nil
}

// group is one call the original Reduce received.
type group struct {
	key    string
	values []string
}

// recordingReducer is the original Reduce of the harness. It reads at
// most readLimit values per call (0 = all) and fails on call failAt.
type recordingReducer struct {
	mr.ReducerBase
	calls     []group
	readLimit int
	failAt    int
}

var errInnerReduce = errors.New("injected Reduce failure")

func (r *recordingReducer) Reduce(key []byte, values mr.ValueIter, _ mr.Emitter) error {
	g := group{key: string(key)}
	for r.readLimit == 0 || len(g.values) < r.readLimit {
		v, ok := values.Next()
		if !ok {
			break
		}
		g.values = append(g.values, string(v))
	}
	r.calls = append(r.calls, g)
	if len(r.calls) == r.failAt {
		return errInnerReduce
	}
	return nil
}

// lastBytePartitioner routes on the key's last byte, so of the harness's
// two partitions each gets about half the keys and re-executed Map
// output is really filtered.
type lastBytePartitioner struct{}

func (lastBytePartitioner) Partition(key []byte, n int) int { return int(key[len(key)-1]) % n }

func harnessInfo(groupCmp bytesx.Compare, fs iokit.FS) *mr.TaskInfo {
	return &mr.TaskInfo{
		JobName: "harness", Workspace: "harness", NumPartitions: 2,
		Partitioner: lastBytePartitioner{}, KeyCompare: bytesx.Bytes, GroupCompare: groupCmp,
		Counters: &mr.Counters{}, FS: fs,
	}
}

// feed runs a reduce task's calls over stream, which must be sorted by
// key: one Reduce per maximal run of group-equal keys, then Cleanup.
func feed(r *antiReducer, info *mr.TaskInfo, stream []pair, out mr.Emitter) error {
	if err := r.Setup(info, out); err != nil {
		return err
	}
	for start := 0; start < len(stream); {
		end := start
		for end < len(stream) && info.GroupCompare(stream[end].key, stream[start].key) == 0 {
			end++
		}
		vals := make([][]byte, 0, end-start)
		for _, p := range stream[start:end] {
			vals = append(vals, p.value)
		}
		if err := r.Reduce(stream[start].key, &sliceIter{vals: vals}, out); err != nil {
			return err
		}
		start = end
	}
	return r.Cleanup(out)
}

// stagingModel is the reference AntiReducer: Algorithms 2 and 4 with
// every record staged in an unbounded, never-spilling Shared. Its calls
// are the sequence the pass-through must reproduce. Each call's values
// come in segments, one per distinct full key in key order.
type stagingModel struct {
	groupCmp bytesx.Compare
	shared   map[string][]string
	calls    [][]group // per Reduce call: segments keyed by full key
}

func (m *stagingModel) add(k, v []byte) { m.shared[string(k)] = append(m.shared[string(k)], string(v)) }

func (m *stagingModel) minKey() (string, bool) {
	best, ok := "", false
	for k := range m.shared {
		if !ok || k < best {
			best, ok = k, true
		}
	}
	return best, ok
}

func (m *stagingModel) popGroup() {
	first, _ := m.minKey()
	var segs []group
	for {
		k, ok := m.minKey()
		if !ok || m.groupCmp([]byte(k), []byte(first)) != 0 {
			break
		}
		segs = append(segs, group{key: k, values: m.shared[k]})
		delete(m.shared, k)
	}
	m.calls = append(m.calls, segs)
}

func (m *stagingModel) run(info *mr.TaskInfo, stream []pair) error {
	keep := mr.EmitterFunc(func(k, v []byte) error {
		if info.Partitioner.Partition(k, info.NumPartitions) == info.Partition {
			m.add(k, v)
		}
		return nil
	})
	for start := 0; start < len(stream); {
		key := stream[start].key
		for {
			k, ok := m.minKey()
			if !ok || m.groupCmp([]byte(k), key) >= 0 {
				break
			}
			m.popGroup()
		}
		end := start
		for ; end < len(stream) && m.groupCmp(stream[end].key, key) == 0; end++ {
			dec, err := DecodeValue(stream[end].value)
			if err != nil {
				return err
			}
			switch dec.Enc {
			case EncPlain:
				m.add(key, dec.Value)
			case EncEager:
				m.add(key, dec.Value)
				for _, ok := range dec.OtherKeys {
					m.add(ok, dec.Value)
				}
			case EncLazy:
				if err := (framedMapper{}).Map(dec.InputKey, dec.InputValue, keep); err != nil {
					return err
				}
			}
		}
		if k, ok := m.minKey(); ok && m.groupCmp([]byte(k), key) == 0 {
			m.popGroup()
		}
		start = end
	}
	for len(m.shared) > 0 {
		m.popGroup()
	}
	return nil
}

// genStream generates Map calls over a small key and value pool (so
// keys repeat and values are shared), encodes partition 0's share of
// each call as plain records, EagerSH groups or one LazySH record at
// random, and returns the reducer's sorted input plus the pairs the
// unwrapped job would have shipped to partition 0.
func genStream(rng *rand.Rand, secondary bool) (stream, truth []pair) {
	newKey := func() []byte {
		if secondary {
			// The low byte decides the partition: keep the date's parity
			// in it so a whole group lands on one reducer.
			date := int32(rng.Intn(6))
			return extremes.Key(date, int32(rng.Intn(4))*2+date%2)
		}
		return []byte(fmt.Sprintf("k%02d", rng.Intn(24)))
	}
	for call := 0; call < 60; call++ {
		var local []pair
		var input []byte
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			p := pair{newKey(), []byte(fmt.Sprintf("v%d", rng.Intn(3)))}
			if rng.Intn(3) == 0 {
				p.value = []byte(fmt.Sprintf("c%d-%d", call, i))
			}
			input = bytesx.AppendRecord(input, p.key, p.value)
			if (lastBytePartitioner{}).Partition(p.key, 2) == 0 {
				local = append(local, p)
			}
		}
		truth = append(truth, local...)
		if len(local) == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0: // plain
			for _, p := range local {
				stream = append(stream, pair{p.key, AppendPlainValue(nil, p.value)})
			}
		case 1: // EagerSH: group by value, minimal key represents
			byValue := map[string][][]byte{}
			var order []string
			for _, p := range local {
				if _, ok := byValue[string(p.value)]; !ok {
					order = append(order, string(p.value))
				}
				byValue[string(p.value)] = append(byValue[string(p.value)], p.key)
			}
			for _, v := range order {
				keys := byValue[v]
				sort.SliceStable(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
				stream = append(stream, pair{keys[0], AppendEagerValue(nil, keys[1:], []byte(v))})
			}
		case 2: // LazySH: the whole call's input, keyed by the local minimum
			min := local[0].key
			for _, p := range local {
				if bytes.Compare(p.key, min) < 0 {
					min = p.key
				}
			}
			stream = append(stream, pair{min, AppendLazyValue(nil, []byte("in"), input)})
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return bytes.Compare(stream[i].key, stream[j].key) < 0 })
	return stream, truth
}

func sortedCopy(vs []string) []string {
	out := append([]string(nil), vs...)
	sort.Strings(out)
	return out
}

// TestAntiReducerMatchesStagingAndOriginal is the contract of the
// pass-through: over random mixes of plain, EagerSH and LazySH records —
// duplicate keys, Shared holding part of a group or not, a grouping
// comparator coarser than the sort comparator, Shared spilling
// mid-group, an original Reduce that stops reading early — the original
// Reduce gets the groups the staged reference produces, value for value
// in the same order, and those are the groups of the unwrapped job.
func TestAntiReducerMatchesStagingAndOriginal(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		secondary := trial%2 == 1
		groupCmp := bytesx.Compare(bytesx.Bytes)
		if secondary {
			groupCmp = extremes.GroupByDate
		}
		memLimit := []int{1 << 20, 1 << 20, 48}[trial%3]
		readLimit := []int{0, 0, 0, 1}[trial%4]
		stream, truth := genStream(rng, secondary)

		model := &stagingModel{groupCmp: groupCmp, shared: map[string][]string{}}
		fs := &iokit.TrackFS{Inner: iokit.NewMemFS()}
		info := harnessInfo(groupCmp, fs)
		if err := model.run(info, stream); err != nil {
			t.Fatal(err)
		}
		rec := &recordingReducer{readLimit: readLimit}
		r := &antiReducer{
			inner:     rec,
			newMapper: func() mr.Mapper { return framedMapper{} },
			opts:      Options{SharedMemLimitBytes: memLimit, SharedMergeFactor: 2},
		}
		if err := feed(r, info, stream, discardEmitter{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		spilled := r.shared.Spills() > 0
		if memLimit < 100 && !spilled {
			t.Fatalf("trial %d: setup: a %d-byte Shared never spilled", trial, memLimit)
		}

		if len(rec.calls) != len(model.calls) {
			t.Fatalf("trial %d: %d Reduce calls, staged reference makes %d", trial, len(rec.calls), len(model.calls))
		}
		for i, segs := range model.calls {
			got := rec.calls[i]
			if got.key != segs[0].key {
				t.Fatalf("trial %d call %d: key %q, want %q", trial, i, got.key, segs[0].key)
			}
			var want []string
			for _, seg := range segs {
				// Between values of one full key, memory-before-runs is the
				// only order a spilled Shared promises.
				if spilled {
					seg.values = sortedCopy(seg.values)
				}
				want = append(want, seg.values...)
			}
			if readLimit > 0 {
				if spilled {
					continue // which value comes first is then unspecified
				}
				want = want[:min(readLimit, len(want))]
			} else if spilled {
				off := 0
				for _, seg := range segs {
					n := min(len(seg.values), len(got.values)-off)
					sort.Strings(got.values[off : off+n])
					off += n
				}
			}
			if strings.Join(got.values, ",") != strings.Join(want, ",") {
				t.Fatalf("trial %d (secondary %v, spilled %v) call %d key %q:\n got %v\nwant %v",
					trial, secondary, spilled, i, got.key, got.values, want)
			}
		}

		// The staged reference itself against the unwrapped job: the same
		// groups in the same order, each the same multiset.
		sort.SliceStable(truth, func(i, j int) bool { return bytes.Compare(truth[i].key, truth[j].key) < 0 })
		call := 0
		for start := 0; start < len(truth); call++ {
			end := start
			var want []string
			for ; end < len(truth) && groupCmp(truth[end].key, truth[start].key) == 0; end++ {
				want = append(want, string(truth[end].value))
			}
			if call >= len(model.calls) {
				t.Fatalf("trial %d: unwrapped job has more groups than %d", trial, len(model.calls))
			}
			var got []string
			for _, seg := range model.calls[call] {
				got = append(got, seg.values...)
			}
			if model.calls[call][0].key != string(truth[start].key) ||
				strings.Join(sortedCopy(got), ",") != strings.Join(sortedCopy(want), ",") {
				t.Fatalf("trial %d group %d: staged %q %v, unwrapped %q %v",
					trial, call, model.calls[call][0].key, got, truth[start].key, want)
			}
			start = end
		}
		if call != len(model.calls) {
			t.Fatalf("trial %d: %d groups staged, %d in the unwrapped job", trial, len(model.calls), call)
		}
		if fs.OpenHandles() != 0 || len(listFiles(t, fs)) != 0 {
			t.Fatalf("trial %d: %d handles open, files left: %v", trial, fs.OpenHandles(), listFiles(t, fs))
		}
	}
}

// TestAntiCombinerMatchesOriginal is the combiner-mode half: the
// transformed combiner fed random encodings re-emits plain records whose
// per-key sums are the unwrapped job's.
func TestAntiCombinerMatchesOriginal(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		stream, truth := genStream(rng, false)
		// Make every value a number: its length.
		renumber := func(ps []pair) {
			for i := range ps {
				ps[i].value = []byte(strconv.Itoa(len(ps[i].value)))
			}
		}
		renumber(truth)
		want := map[string]int{}
		for _, p := range truth {
			n, _ := strconv.Atoi(string(p.value))
			want[string(p.key)] += n
		}
		for i, p := range stream {
			dec, err := DecodeValue(p.value)
			if err != nil {
				t.Fatal(err)
			}
			switch dec.Enc {
			case EncPlain:
				stream[i].value = AppendPlainValue(nil, []byte(strconv.Itoa(len(dec.Value))))
			case EncEager:
				stream[i].value = AppendEagerValue(nil, dec.OtherKeys, []byte(strconv.Itoa(len(dec.Value))))
			case EncLazy:
				var input []byte
				for rest := dec.InputValue; len(rest) > 0; {
					k, v, n, _ := bytesx.DecodeRecord(rest)
					input = bytesx.AppendRecord(input, k, []byte(strconv.Itoa(len(v))))
					rest = rest[n:]
				}
				stream[i].value = AppendLazyValue(nil, dec.InputKey, input)
			}
		}

		got := map[string]int{}
		var lastKey string
		out := mr.EmitterFunc(func(k, v []byte) error {
			if string(k) < lastKey {
				return fmt.Errorf("combiner output key %q after %q", k, lastKey)
			}
			lastKey = string(k)
			dec, err := DecodeValue(v)
			if err != nil || dec.Enc != EncPlain {
				return fmt.Errorf("combiner emitted %q: not a plain record (%v)", v, err)
			}
			n, err := strconv.Atoi(string(dec.Value))
			got[string(k)] += n
			return err
		})
		info := harnessInfo(bytesx.Bytes, iokit.NewMemFS())
		r := &antiReducer{
			inner:       sumCombiner{},
			newMapper:   func() mr.Mapper { return framedMapper{} },
			newCombiner: func() mr.Reducer { return sumCombiner{} },
			opts:        Options{SharedMemLimitBytes: []int{1 << 20, 48}[trial%2]},
			combineMode: true,
		}
		if err := feed(r, info, stream, out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: combined sums %v, want %v", trial, got, want)
		}
	}
}

// TestAntiReducerErrorReleasesShared: the engine does not call Cleanup
// after a failed Reduce, so the AntiReducer itself must give back
// Shared's open spill-run readers and run files — whether the failure
// is the original Reduce's or a Shared read's, in Reduce or in Cleanup.
func TestAntiReducerErrorReleasesShared(t *testing.T) {
	// Every record is LazySH and regenerates keys far ahead of the
	// current one, so Shared holds spilled runs throughout the task.
	var stream []pair
	for i := 0; i < 40; i++ {
		var input []byte
		for j := i; j < i+20; j += 2 {
			input = bytesx.AppendRecord(input, []byte(fmt.Sprintf("k%03d", 2*j)), []byte(fmt.Sprintf("value-%d-%d", i, j)))
		}
		stream = append(stream, pair{[]byte(fmt.Sprintf("k%03d", 2*i)), AppendLazyValue(nil, nil, input)})
	}
	cases := []struct {
		name    string
		failAt  int   // original Reduce call that fails
		readsOK int64 // Shared reads before the injected fault; 0 = none injected
		want    error
	}{
		{"inner-reduce", 10, 0, errInnerReduce},
		{"inner-reduce-in-cleanup", 45, 0, errInnerReduce},
		{"shared-read", 0, 12, iokit.ErrInjected},
	}
	for _, c := range cases {
		mem := iokit.NewMemFS()
		flaky := &iokit.FlakyFS{Inner: mem, FailReadAt: c.readsOK}
		track := &iokit.TrackFS{Inner: flaky}
		info := harnessInfo(bytesx.Bytes, track)
		rec := &recordingReducer{failAt: c.failAt}
		r := &antiReducer{
			inner:     rec,
			newMapper: func() mr.Mapper { return framedMapper{} },
			opts:      Options{SharedMemLimitBytes: 64, SharedMergeFactor: 3},
		}
		err := feed(r, info, stream, discardEmitter{})
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: task error = %v, want %v", c.name, err, c.want)
		}
		if r.shared.Spills() == 0 {
			t.Fatalf("%s: setup: Shared never spilled", c.name)
		}
		if n := track.OpenHandles(); n != 0 {
			t.Errorf("%s: %d file handles left open", c.name, n)
		}
		for _, name := range listFiles(t, mem) {
			if strings.Contains(name, "/anti/") {
				t.Errorf("%s: Shared file left behind: %s", c.name, name)
			}
		}
	}
}

// TestJobReduceErrorLeavesNoSharedFiles is the same leak seen from the
// engine: a job whose Reduce fails mid-task while Shared has spilled.
func TestJobReduceErrorLeavesNoSharedFiles(t *testing.T) {
	base := prefixJob(nil, 3)
	var calls atomic.Int64
	inner := base.NewReducer
	base.NewReducer = func() mr.Reducer {
		r := inner()
		return mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
			if calls.Add(1) == 40 {
				return errInnerReduce
			}
			return r.Reduce(key, values, out)
		})()
	}
	job := Wrap(base, Options{Strategy: Adaptive, SharedMemLimitBytes: 64, SharedMergeFactor: 2})
	track := &iokit.TrackFS{Inner: iokit.NewMemFS()}
	job.FS = track
	if _, err := mr.Run(job, queries(200)); !errors.Is(err, errInnerReduce) {
		t.Fatalf("job error = %v, want the injected Reduce failure", err)
	}
	if n := track.OpenHandles(); n != 0 {
		t.Errorf("%d file handles left open", n)
	}
	for _, name := range listFiles(t, track) {
		if strings.Contains(name, "/anti/") {
			t.Errorf("Shared file left behind: %s", name)
		}
	}
}

// TestPlainGroupReduceDoesNotAllocate guards the pass-through's reason
// to exist: a group of plain records costs the AntiReducer no
// allocation (and so never touches Shared).
func TestPlainGroupReduceDoesNotAllocate(t *testing.T) {
	r := &antiReducer{
		inner:     &countingReducer{},
		newMapper: func() mr.Mapper { return framedMapper{} },
	}
	info := harnessInfo(bytesx.Bytes, iokit.NewMemFS())
	if err := r.Setup(info, discardEmitter{}); err != nil {
		t.Fatal(err)
	}
	key := []byte("some sort key")
	it := &sliceIter{vals: [][]byte{AppendPlainValue(nil, []byte("a")), AppendPlainValue(nil, []byte("b"))}}
	var out mr.Emitter = discardEmitter{}
	allocs := testing.AllocsPerRun(200, func() {
		it.i = 0
		if err := r.Reduce(key, it, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a plain group costs %v allocations per Reduce, want 0", allocs)
	}
	if got := r.inner.(*countingReducer).values; got != 2*201 {
		t.Errorf("original Reduce saw %d values, want %d", got, 2*201)
	}
}

// countingReducer counts the values it is handed.
type countingReducer struct {
	mr.ReducerBase
	values int
}

func (r *countingReducer) Reduce(_ []byte, values mr.ValueIter, _ mr.Emitter) error {
	for {
		if _, ok := values.Next(); !ok {
			return nil
		}
		r.values++
	}
}
