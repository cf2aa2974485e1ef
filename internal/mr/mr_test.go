package mr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bytesx"
	"repro/internal/codec"
	"repro/internal/iokit"
)

// wordCountJob builds a classic word-count job over lines of text.
func wordCountJob(withCombiner bool) *Job {
	sum := NewReduceFunc(func(key []byte, values ValueIter, out Emitter) error {
		total := 0
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			total += n
		}
		return out.Emit(key, []byte(strconv.Itoa(total)))
	})
	job := &Job{
		Name: "wordcount",
		NewMapper: NewMapFunc(func(key, value []byte, out Emitter) error {
			for _, w := range strings.Fields(string(value)) {
				if err := out.Emit([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		}),
		NewReducer:     sum,
		NumReduceTasks: 3,
		Deterministic:  true,
	}
	if withCombiner {
		job.NewCombiner = sum
	}
	return job
}

func lines(ss ...string) []Split {
	var splits []Split
	for _, s := range ss {
		splits = append(splits, &MemSplit{Recs: []Record{{Key: nil, Value: []byte(s)}}})
	}
	return splits
}

func outputMap(t *testing.T, res *Result) map[string]string {
	t.Helper()
	m := make(map[string]string)
	for _, r := range res.SortedOutput() {
		if _, dup := m[string(r.Key)]; dup {
			t.Fatalf("duplicate output key %q", r.Key)
		}
		m[string(r.Key)] = string(r.Value)
	}
	return m
}

func TestWordCountEndToEnd(t *testing.T) {
	for _, combiner := range []bool{false, true} {
		t.Run(fmt.Sprintf("combiner=%v", combiner), func(t *testing.T) {
			res, err := Run(wordCountJob(combiner), lines(
				"the quick brown fox",
				"the lazy dog and the quick cat",
				"dog eats fox",
			))
			if err != nil {
				t.Fatal(err)
			}
			got := outputMap(t, res)
			want := map[string]string{
				"the": "3", "quick": "2", "brown": "1", "fox": "2",
				"lazy": "1", "dog": "2", "and": "1", "cat": "1", "eats": "1",
			}
			if len(got) != len(want) {
				t.Fatalf("got %d keys, want %d: %v", len(got), len(want), got)
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("%q = %q, want %q", k, got[k], v)
				}
			}
			if res.Stats.MapInputRecords != 3 {
				t.Errorf("MapInputRecords = %d", res.Stats.MapInputRecords)
			}
			if res.Stats.MapOutputRecords != 14 {
				t.Errorf("MapOutputRecords = %d", res.Stats.MapOutputRecords)
			}
			if combiner && res.Stats.CombineInputRecords == 0 {
				t.Error("combiner never ran")
			}
			if res.Stats.ShuffleBytes <= 0 || res.Stats.MapOutputBytes <= 0 {
				t.Errorf("byte counters: %+v", res.Stats)
			}
		})
	}
}

func TestReduceKeysSortedWithinPartition(t *testing.T) {
	var mu struct {
		keysByPart map[int][]string
	}
	mu.keysByPart = map[int][]string{}
	job := &Job{
		NewMapper: NewMapFunc(func(key, value []byte, out Emitter) error {
			return out.Emit(value, []byte("x"))
		}),
		NewReducer: func() Reducer {
			return &orderRecordingReducer{record: func(part int, key string) {
				mu.keysByPart[part] = append(mu.keysByPart[part], key)
			}}
		},
		NumReduceTasks: 2,
		Parallelism:    1, // serialize so the shared map is safe
	}
	var recs []Record
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		recs = append(recs, Record{Value: []byte(fmt.Sprintf("k%04d", rng.Intn(200)))})
	}
	if _, err := Run(job, SplitRecords(recs, 5)); err != nil {
		t.Fatal(err)
	}
	for part, keys := range mu.keysByPart {
		if !sort.StringsAreSorted(keys) {
			t.Errorf("partition %d keys not sorted: %v", part, keys)
		}
		seen := map[string]bool{}
		for _, k := range keys {
			if seen[k] {
				t.Errorf("partition %d: key %q reduced twice", part, k)
			}
			seen[k] = true
		}
	}
}

type orderRecordingReducer struct {
	ReducerBase
	part   int
	record func(part int, key string)
}

func (r *orderRecordingReducer) Setup(info *TaskInfo, _ Emitter) error {
	r.part = info.Partition
	return nil
}

func (r *orderRecordingReducer) Reduce(key []byte, values ValueIter, out Emitter) error {
	r.record(r.part, string(key))
	return nil
}

func TestSpillsProduceSameResult(t *testing.T) {
	text := make([]string, 50)
	rng := rand.New(rand.NewSource(3))
	for i := range text {
		var words []string
		for j := 0; j < 100; j++ {
			words = append(words, fmt.Sprintf("w%03d", rng.Intn(300)))
		}
		text[i] = strings.Join(words, " ")
	}
	baseline, err := Run(wordCountJob(false), lines(text...))
	if err != nil {
		t.Fatal(err)
	}
	spillJob := wordCountJob(false)
	spillJob.SortBufferBytes = 256 // force many spills
	spillJob.MergeFactor = 2       // force multi-pass merges
	spilled, err := Run(spillJob, lines(text...))
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Stats.Spills <= baseline.Stats.Spills {
		t.Errorf("expected more spills: %d vs %d", spilled.Stats.Spills, baseline.Stats.Spills)
	}
	if got, want := outputMap(t, spilled), outputMap(t, baseline); len(got) != len(want) {
		t.Fatalf("output sizes differ: %d vs %d", len(got), len(want))
	} else {
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%q = %q, want %q", k, got[k], v)
			}
		}
	}
}

// TestReduceOutputIndependentOfMergeFactor: equal keys reach Reduce in
// map-task order (Plan.Sources) whether a reduce streams all of its
// inputs at once or merges some of them first, so a reducer that
// concatenates its values gives the same output at every merge factor.
// The splits differ in size, so a pass that picked inputs by size
// alone would reorder them.
func TestReduceOutputIndependentOfMergeFactor(t *testing.T) {
	splits := make([]Split, 12)
	for i := range splits {
		var recs []Record
		for j := 0; j < 1+(i*5)%12*3; j++ {
			recs = append(recs, Record{
				Key:   []byte{"abc"[j%3]},
				Value: []byte(fmt.Sprintf("m%02d.%d", i, j)),
			})
		}
		splits[i] = &MemSplit{Recs: recs}
	}
	run := func(mergeFactor int) [][]Record {
		job := &Job{
			Name: "concat",
			NewMapper: NewMapFunc(func(k, v []byte, out Emitter) error {
				return out.Emit(k, v)
			}),
			NewReducer: NewReduceFunc(func(key []byte, values ValueIter, out Emitter) error {
				var all []byte
				for v, ok := values.Next(); ok; v, ok = values.Next() {
					all = append(append(all, v...), ',')
				}
				return out.Emit(key, all)
			}),
			NumReduceTasks: 2,
			MergeFactor:    mergeFactor,
		}
		res, err := Run(job, splits)
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}
	narrow, wide := run(3), run(100)
	if fmt.Sprint(narrow) != fmt.Sprint(wide) {
		t.Errorf("output at MergeFactor 3 differs from MergeFactor 100:\n%q\n%q", narrow, wide)
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	// One split with heavy key repetition: combining shrinks the shuffle.
	line := strings.Repeat("alpha beta ", 2000)
	plain, err := Run(wordCountJob(false), lines(line))
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Run(wordCountJob(true), lines(line))
	if err != nil {
		t.Fatal(err)
	}
	if combined.Stats.ShuffleBytes*10 > plain.Stats.ShuffleBytes {
		t.Errorf("combiner shuffle %d not <10%% of plain %d",
			combined.Stats.ShuffleBytes, plain.Stats.ShuffleBytes)
	}
	if got := outputMap(t, combined)["alpha"]; got != "2000" {
		t.Errorf("alpha = %s", got)
	}
}

func TestCodecsEndToEnd(t *testing.T) {
	for _, name := range codec.Names() {
		t.Run(name, func(t *testing.T) {
			c, err := codec.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			job := wordCountJob(false)
			job.Codec = c
			job.SortBufferBytes = 512 // exercise compressed spills + merges
			res, err := Run(job, lines(strings.Repeat("x y z ", 500)))
			if err != nil {
				t.Fatal(err)
			}
			got := outputMap(t, res)
			if got["x"] != "500" || got["y"] != "500" || got["z"] != "500" {
				t.Errorf("bad counts: %v", got)
			}
		})
	}
}

func TestCompressionShrinksShuffle(t *testing.T) {
	job := wordCountJob(false)
	plain, err := Run(job, lines(strings.Repeat("compressible ", 3000)))
	if err != nil {
		t.Fatal(err)
	}
	gz := wordCountJob(false)
	gz.Codec = codec.Gzip{}
	zipped, err := Run(gz, lines(strings.Repeat("compressible ", 3000)))
	if err != nil {
		t.Fatal(err)
	}
	if zipped.Stats.ShuffleBytes >= plain.Stats.ShuffleBytes/5 {
		t.Errorf("gzip shuffle %d not <20%% of plain %d",
			zipped.Stats.ShuffleBytes, plain.Stats.ShuffleBytes)
	}
	// Map output (pre-codec) is unchanged by compression.
	if zipped.Stats.MapOutputBytes != plain.Stats.MapOutputBytes {
		t.Errorf("MapOutputBytes changed under codec: %d vs %d",
			zipped.Stats.MapOutputBytes, plain.Stats.MapOutputBytes)
	}
}

func TestGroupingComparator(t *testing.T) {
	// Secondary sort: keys are "primary#secondary"; grouping compares the
	// primary part only, so one Reduce call sees all secondaries of a
	// primary in full key order.
	primary := func(k []byte) []byte {
		if i := bytes.IndexByte(k, '#'); i >= 0 {
			return k[:i]
		}
		return k
	}
	job := &Job{
		NewMapper: NewMapFunc(func(key, value []byte, out Emitter) error {
			return out.Emit(value, value)
		}),
		NewReducer: NewReduceFunc(func(key []byte, values ValueIter, out Emitter) error {
			var got []string
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				got = append(got, string(v))
			}
			return out.Emit(primary(key), []byte(strings.Join(got, ",")))
		}),
		GroupCompare: func(a, b []byte) int {
			return bytes.Compare(primary(a), primary(b))
		},
		Partitioner: PartitionerFunc(func(key []byte, n int) int {
			return HashPartitioner{}.Partition(primary(key), n)
		}),
		NumReduceTasks: 3,
	}
	recs := []Record{
		{Value: []byte("b#2")}, {Value: []byte("a#3")}, {Value: []byte("a#1")},
		{Value: []byte("b#1")}, {Value: []byte("a#2")}, {Value: []byte("c#9")},
	}
	res, err := Run(job, SplitRecords(recs, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := outputMap(t, res)
	want := map[string]string{"a": "a#1,a#2,a#3", "b": "b#1,b#2", "c": "c#9"}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%q = %q, want %q", k, got[k], v)
		}
	}
}

func TestReducerMayNotDrainValues(t *testing.T) {
	job := &Job{
		NewMapper: NewMapFunc(func(key, value []byte, out Emitter) error {
			return out.Emit(value, value)
		}),
		NewReducer: NewReduceFunc(func(key []byte, values ValueIter, out Emitter) error {
			// Consume only the first value per group.
			values.Next()
			return out.Emit(key, []byte("seen"))
		}),
		NumReduceTasks: 2,
	}
	var recs []Record
	for i := 0; i < 100; i++ {
		recs = append(recs, Record{Value: []byte(fmt.Sprintf("k%d", i%10))})
	}
	res, err := Run(job, SplitRecords(recs, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(outputMap(t, res)); got != 10 {
		t.Errorf("got %d distinct keys, want 10", got)
	}
}

func TestErrorsPropagate(t *testing.T) {
	boom := errors.New("boom")
	cases := map[string]*Job{
		"mapper": {
			NewMapper:  NewMapFunc(func(_, _ []byte, _ Emitter) error { return boom }),
			NewReducer: NewReduceFunc(func(_ []byte, _ ValueIter, _ Emitter) error { return nil }),
		},
		"reducer": {
			NewMapper:  NewMapFunc(func(k, v []byte, out Emitter) error { return out.Emit(v, v) }),
			NewReducer: NewReduceFunc(func(_ []byte, _ ValueIter, _ Emitter) error { return boom }),
		},
		"partitioner": {
			NewMapper:   NewMapFunc(func(k, v []byte, out Emitter) error { return out.Emit(v, v) }),
			NewReducer:  NewReduceFunc(func(_ []byte, _ ValueIter, _ Emitter) error { return nil }),
			Partitioner: PartitionerFunc(func([]byte, int) int { return -1 }),
		},
	}
	for name, job := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Run(job, lines("x"))
			if err == nil {
				t.Fatal("expected error")
			}
			if name != "partitioner" && !errors.Is(err, boom) {
				t.Errorf("error chain lost: %v", err)
			}
		})
	}
}

func TestInvalidJob(t *testing.T) {
	if _, err := Run(&Job{}, nil); err == nil {
		t.Error("missing mapper should fail")
	}
	if _, err := Run(&Job{NewMapper: NewMapFunc(func(_, _ []byte, _ Emitter) error { return nil })}, nil); err == nil {
		t.Error("missing reducer should fail")
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Run(wordCountJob(false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SortedOutput()) != 0 {
		t.Error("expected no output")
	}
}

func TestDiscardOutput(t *testing.T) {
	job := wordCountJob(false)
	job.DiscardOutput = true
	res, err := Run(job, lines("a b c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SortedOutput()) != 0 {
		t.Error("DiscardOutput should suppress collection")
	}
	if res.Stats.ReduceOutputRecords != 3 {
		t.Errorf("ReduceOutputRecords = %d", res.Stats.ReduceOutputRecords)
	}
}

func TestOSFSBacked(t *testing.T) {
	job := wordCountJob(true)
	job.FS = iokit.NewOSFS(t.TempDir())
	job.SortBufferBytes = 512
	res, err := Run(job, lines(strings.Repeat("disk spill test ", 300)))
	if err != nil {
		t.Fatal(err)
	}
	if got := outputMap(t, res)["spill"]; got != "300" {
		t.Errorf("spill = %s", got)
	}
	if res.Stats.DiskWriteBytes <= 0 || res.Stats.DiskReadBytes <= 0 {
		t.Errorf("disk counters: %+v", res.Stats)
	}
}

// TestEngineAgainstReference runs randomized identity-grouping jobs and
// checks every (key -> multiset of values) against an in-memory
// reference group-by, across buffer/merge/codec configurations.
func TestEngineAgainstReference(t *testing.T) {
	configs := []struct {
		name   string
		mutate func(*Job)
	}{
		{"default", func(*Job) {}},
		{"tinyBuffer", func(j *Job) { j.SortBufferBytes = 128 }},
		{"tinyMerge", func(j *Job) { j.SortBufferBytes = 128; j.MergeFactor = 2 }},
		{"gzip", func(j *Job) { j.Codec = codec.Gzip{}; j.SortBufferBytes = 256 }},
		{"snappy", func(j *Job) { j.Codec = codec.Snappy{}; j.SortBufferBytes = 256 }},
		{"onePartition", func(j *Job) { j.NumReduceTasks = 1 }},
		{"manyPartitions", func(j *Job) { j.NumReduceTasks = 13 }},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			want := map[string][]string{}
			var recs []Record
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key%02d", rng.Intn(40))
				v := fmt.Sprintf("val%04d", rng.Intn(10000))
				want[k] = append(want[k], v)
				recs = append(recs, Record{Key: []byte(k), Value: []byte(v)})
			}
			job := &Job{
				NewMapper: NewMapFunc(func(key, value []byte, out Emitter) error {
					return out.Emit(key, value)
				}),
				NewReducer: NewReduceFunc(func(key []byte, values ValueIter, out Emitter) error {
					var vs []string
					for {
						v, ok := values.Next()
						if !ok {
							break
						}
						vs = append(vs, string(v))
					}
					sort.Strings(vs)
					return out.Emit(key, []byte(strings.Join(vs, ",")))
				}),
				NumReduceTasks: 4,
			}
			cfg.mutate(job)
			res, err := Run(job, SplitRecords(recs, 7))
			if err != nil {
				t.Fatal(err)
			}
			got := outputMap(t, res)
			if len(got) != len(want) {
				t.Fatalf("got %d keys, want %d", len(got), len(want))
			}
			for k, vs := range want {
				sort.Strings(vs)
				if got[k] != strings.Join(vs, ",") {
					t.Errorf("key %q: got %q want %q", k, got[k], strings.Join(vs, ","))
				}
			}
		})
	}
}

func TestHashPartitionerRange(t *testing.T) {
	p := HashPartitioner{}
	counts := make([]int, 7)
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		part := p.Partition(k, 7)
		if part < 0 || part >= 7 {
			t.Fatalf("partition %d out of range", part)
		}
		counts[part]++
	}
	for i, c := range counts {
		if c < 1000 {
			t.Errorf("partition %d badly balanced: %d/10000", i, c)
		}
	}
}

func TestStatsString(t *testing.T) {
	res, err := Run(wordCountJob(false), lines("a b"))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	s.Extra = map[string]int64{"custom": 1}
	if !strings.Contains(s.String(), "custom=1") {
		t.Errorf("String() missing extra counter: %s", s.String())
	}
}

func TestCountersExtra(t *testing.T) {
	var c Counters
	c.AddExtra("x", 2)
	c.AddExtra("x", 3)
	if c.Extra("x") != 5 {
		t.Errorf("Extra = %d", c.Extra("x"))
	}
	snap := c.Snapshot()
	if snap.Extra["x"] != 5 {
		t.Errorf("Snapshot extra = %d", snap.Extra["x"])
	}
}

func TestRunPool(t *testing.T) {
	n := 100
	seen := make([]bool, n)
	var mu sync.Mutex
	err := runPool(context.Background(), 8, n, func(_ context.Context, i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Errorf("index %d never ran", i)
		}
	}
	boom := errors.New("boom")
	err = runPool(context.Background(), 4, 50, func(_ context.Context, i int) error {
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("pool error = %v", err)
	}
}

// TestRunPoolCancelsInFlightSiblings: when one task fails, siblings
// already dispatched must observe cancellation through their context
// instead of running to completion.
func TestRunPoolCancelsInFlightSiblings(t *testing.T) {
	boom := errors.New("boom")
	siblingRunning := make(chan struct{})
	var sawCancel atomic.Bool
	err := runPool(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			close(siblingRunning)
			select {
			case <-ctx.Done():
				sawCancel.Store(true)
			case <-time.After(5 * time.Second):
			}
			return nil
		}
		<-siblingRunning // fail only once the sibling is in flight
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("pool error = %v, want boom", err)
	}
	if !sawCancel.Load() {
		t.Error("in-flight sibling never observed cancellation")
	}
}

func TestGenSplit(t *testing.T) {
	s := &GenSplit{Gen: func(emit func(k, v []byte) error) error {
		for i := 0; i < 5; i++ {
			if err := emit(nil, []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
		}
		return nil
	}}
	n := 0
	if err := s.Records(func(k, v []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("got %d records", n)
	}
}

func TestMergeIterOrder(t *testing.T) {
	mk := func(keys ...string) recordStream {
		i := 0
		return streamFunc(func() ([]byte, []byte, error) {
			if i >= len(keys) {
				return nil, nil, io.EOF
			}
			k := keys[i]
			i++
			return []byte(k), []byte("v"), nil
		})
	}
	m, err := newMergeIter([]recordStream{
		mk("a", "c", "e"), mk("b", "c", "d"), mk(), mk("a"),
	}, bytesx.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		k, _, err := m.next()
		if err != nil {
			break
		}
		got = append(got, string(k))
	}
	want := "a,a,b,c,c,d,e"
	if strings.Join(got, ",") != want {
		t.Errorf("merge order = %s, want %s", strings.Join(got, ","), want)
	}
}

// TestRunMerger: runs pushed at any time merge by key, equal keys in push
// order (also while a run repeats a key); Peek does not consume; an
// exhausted run's file is removed at once, and Close removes the files of
// the runs still open.
func TestRunMerger(t *testing.T) {
	fs := iokit.NewMemFS()
	push := func(c *RunMerger, name string, recs ...string) {
		t.Helper()
		var rs []Record
		for _, r := range recs {
			k, v, _ := strings.Cut(r, "=")
			rs = append(rs, Record{Key: []byte(k), Value: []byte(v)})
		}
		if err := WriteRecordFile(fs, name, rs); err != nil {
			t.Fatal(err)
		}
		if err := c.Push(name); err != nil {
			t.Fatal(err)
		}
	}
	pop := func(c *RunMerger) string {
		t.Helper()
		k, v, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		return string(k) + "=" + string(v)
	}
	c := NewRunMerger(fs, nil)
	push(&c, "r0", "b=0a", "b=0b", "d=0")
	push(&c, "r1", "a=1", "b=1", "z=1")
	push(&c, "empty")
	if k, ok := c.Peek(); !ok || string(k) != "a" || c.Len() != 2 {
		t.Fatalf("Peek = %q/%v with %d runs, want a/true with 2", k, ok, c.Len())
	}
	var got []string
	for i := 0; i < 2; i++ {
		got = append(got, pop(&c))
	}
	push(&c, "r2", "b=2", "c=2")
	for i := 0; i < 5; i++ {
		got = append(got, pop(&c))
	}
	if want := "a=1 b=0a b=0b b=1 b=2 c=2 d=0"; strings.Join(got, " ") != want {
		t.Errorf("merged %q, want %q", strings.Join(got, " "), want)
	}
	if names, _ := fs.List(); strings.Join(names, ",") != "r1" {
		t.Errorf("files after exhausting r0 and r2: %v, want [r1]", names)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List(); len(names) != 0 || c.Len() != 0 {
		t.Errorf("after Close: files %v, %d runs", names, c.Len())
	}
}

type streamFunc func() ([]byte, []byte, error)

func (f streamFunc) next() ([]byte, []byte, error) { return f() }
