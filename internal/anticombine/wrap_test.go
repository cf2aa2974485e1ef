package anticombine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mr"
)

// prefixJob is a Query-Suggestion-shaped job: Map emits (prefix, query)
// for every prefix of the query; Reduce emits the sorted set of queries
// with multiplicities. Output is order-insensitive so original and
// wrapped runs compare exactly.
func prefixJob(partitioner mr.Partitioner, reducers int) *mr.Job {
	return &mr.Job{
		Name: "prefix",
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error {
			q := string(value)
			for i := 1; i <= len(q); i++ {
				if err := out.Emit([]byte(q[:i]), value); err != nil {
					return err
				}
			}
			return nil
		}),
		NewReducer: mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
			counts := map[string]int{}
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				counts[string(v)]++
			}
			var parts []string
			for q, n := range counts {
				parts = append(parts, fmt.Sprintf("%s×%d", q, n))
			}
			sort.Strings(parts)
			return out.Emit(key, []byte(strings.Join(parts, ",")))
		}),
		Partitioner:    partitioner,
		NumReduceTasks: reducers,
		Deterministic:  true,
	}
}

// fanoutJob emits a randomized (but input-deterministic) mix of records:
// some share values, some don't, spread over partitions — exercising
// plain, eager, and lazy paths together.
func fanoutJob() *mr.Job {
	return &mr.Job{
		Name: "fanout",
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error {
			seed := int64(len(value))
			for _, b := range value {
				seed = seed*131 + int64(b)
			}
			rng := rand.New(rand.NewSource(seed))
			n := rng.Intn(8)
			shared := fmt.Sprintf("shared-%x", seed)
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("k%03d", rng.Intn(50)))
				if rng.Intn(2) == 0 {
					if err := out.Emit(k, []byte(shared)); err != nil {
						return err
					}
				} else {
					if err := out.Emit(k, []byte(fmt.Sprintf("solo-%d-%d", seed, i))); err != nil {
						return err
					}
				}
			}
			return nil
		}),
		NewReducer: mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
			var vs []string
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				vs = append(vs, string(v))
			}
			sort.Strings(vs)
			return out.Emit(key, []byte(strings.Join(vs, "|")))
		}),
		NumReduceTasks: 5,
		Deterministic:  true,
	}
}

// countJob is WordCount with a sum combiner.
func countJob() *mr.Job {
	sum := mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
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
	return &mr.Job{
		Name: "count",
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error {
			for _, w := range strings.Fields(string(value)) {
				if err := out.Emit([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		}),
		NewReducer:     sum,
		NewCombiner:    sum,
		NumReduceTasks: 3,
		Deterministic:  true,
	}
}

// identityJob ships each record through unchanged (the Sort workload).
func identityJob() *mr.Job {
	return &mr.Job{
		Name: "identity",
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error {
			return out.Emit(value, value)
		}),
		NewReducer: mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
			n := 0
			for {
				if _, ok := values.Next(); !ok {
					break
				}
				n++
			}
			return out.Emit(key, []byte(strconv.Itoa(n)))
		}),
		NumReduceTasks: 4,
		Deterministic:  true,
	}
}

func queries(n int) []mr.Split {
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"mango", "manga", "map", "sigmod", "sigmod 2014",
		"sigmod acceptance rate", "watch how i met your mother online",
		"mapreduce", "anti combining", "query suggestion", "man"}
	var recs []mr.Record
	for i := 0; i < n; i++ {
		recs = append(recs, mr.Record{Value: []byte(vocab[rng.Intn(len(vocab))])})
	}
	return mr.SplitRecords(recs, 6)
}

func resultMap(t *testing.T, res *mr.Result) map[string]string {
	t.Helper()
	m := make(map[string]string)
	for _, r := range res.SortedOutput() {
		if prev, dup := m[string(r.Key)]; dup {
			t.Fatalf("duplicate output key %q (%q vs %q)", r.Key, prev, r.Value)
		}
		m[string(r.Key)] = string(r.Value)
	}
	return m
}

func assertSameOutput(t *testing.T, original, wrapped *mr.Result) {
	t.Helper()
	got, want := resultMap(t, wrapped), resultMap(t, original)
	if len(got) != len(want) {
		t.Fatalf("output key counts differ: wrapped %d vs original %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q: wrapped %q, original %q", k, got[k], v)
		}
	}
}

// TestWrapEquivalenceMatrix is the core invariant of the reproduction:
// the transformed program must compute exactly what the original does,
// across every strategy, threshold, combiner flag, and Shared pressure.
func TestWrapEquivalenceMatrix(t *testing.T) {
	jobs := map[string]func() (*mr.Job, []mr.Split){
		"prefix-hash":    func() (*mr.Job, []mr.Split) { return prefixJob(nil, 4), queries(150) },
		"prefix-single":  func() (*mr.Job, []mr.Split) { return prefixJob(nil, 1), queries(80) },
		"fanout":         func() (*mr.Job, []mr.Split) { return fanoutJob(), queries(200) },
		"count-combiner": func() (*mr.Job, []mr.Split) { return countJob(), queries(200) },
		"identity":       func() (*mr.Job, []mr.Split) { return identityJob(), queries(150) },
	}
	optsSets := map[string]Options{
		"adaptiveInf":    AdaptiveInf(),
		"adaptive0":      Adaptive0(),
		"adaptiveAlpha":  AdaptiveAlpha(),
		"adaptiveTinyT":  {Strategy: Adaptive, T: time.Nanosecond},
		"lazyOnly":       {Strategy: LazyOnly},
		"mapCombiner":    {Strategy: Adaptive, MapCombiner: true},
		"tinyShared":     {Strategy: Adaptive, SharedMemLimitBytes: 64, SharedMergeFactor: 2},
		"noSharedComb":   {Strategy: Adaptive, DisableSharedCombine: true},
		"lazyTinyShared": {Strategy: LazyOnly, SharedMemLimitBytes: 64},
	}
	for jobName, mk := range jobs {
		job, splits := mk()
		original, err := mr.Run(job, splits)
		if err != nil {
			t.Fatalf("%s original: %v", jobName, err)
		}
		for optName, opts := range optsSets {
			t.Run(jobName+"/"+optName, func(t *testing.T) {
				job2, splits2 := mk()
				wrapped, err := mr.Run(Wrap(job2, opts), splits2)
				if err != nil {
					t.Fatal(err)
				}
				assertSameOutput(t, original, wrapped)
			})
		}
	}
}

func TestWrapWithSpillsAndCodec(t *testing.T) {
	// Tiny engine buffers force spills of encoded records plus
	// multi-pass merges, on top of a compressed map output stream.
	mk := func() (*mr.Job, []mr.Split) { return prefixJob(nil, 3), queries(200) }
	job, splits := mk()
	original, err := mr.Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	job2, splits2 := mk()
	wjob := Wrap(job2, AdaptiveInf())
	wjob.SortBufferBytes = 512
	wjob.MergeFactor = 2
	wrapped, err := mr.Run(wjob, splits2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutput(t, original, wrapped)
}

func TestWrapCombinerModeWithSpills(t *testing.T) {
	// MapCombiner=true routes encoded records through the transformed
	// combiner at spill time (and at merge time with >=3 spills).
	mk := func() (*mr.Job, []mr.Split) { return countJob(), queries(300) }
	job, splits := mk()
	original, err := mr.Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	job2, splits2 := mk()
	wjob := Wrap(job2, Options{Strategy: Adaptive, MapCombiner: true})
	wjob.SortBufferBytes = 512
	wrapped, err := mr.Run(wjob, splits2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutput(t, original, wrapped)
	if wrapped.Stats.CombineInputRecords == 0 {
		t.Error("transformed combiner never ran")
	}
}

func TestStrategyCounters(t *testing.T) {
	run := func(opts Options) *mr.Result {
		job, splits := prefixJob(nil, 1), queries(100)
		res, err := mr.Run(Wrap(job, opts), splits)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	eager := run(Adaptive0())
	if eager.Stats.Extra[CounterLazyRecords] != 0 || eager.Stats.Extra[CounterMapReexec] != 0 {
		t.Errorf("EagerOnly produced lazy records: %v", eager.Stats.Extra)
	}
	if eager.Stats.Extra[CounterEagerRecords] == 0 {
		t.Error("EagerOnly produced no eager records on the prefix workload")
	}
	lazy := run(Options{Strategy: LazyOnly})
	if lazy.Stats.Extra[CounterLazyRecords] == 0 || lazy.Stats.Extra[CounterMapReexec] == 0 {
		t.Errorf("LazyOnly produced no lazy records: %v", lazy.Stats.Extra)
	}
	adaptive := run(AdaptiveInf())
	if adaptive.Stats.Extra[CounterOrigMapRecords] == 0 {
		t.Error("original map output counter missing")
	}
}

func TestNonDeterministicDisablesLazy(t *testing.T) {
	job, splits := prefixJob(nil, 2), queries(60)
	job.Deterministic = false
	res, err := mr.Run(Wrap(job, Options{Strategy: LazyOnly}), splits)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Extra[CounterLazyRecords] != 0 {
		t.Errorf("non-deterministic job emitted %d lazy records",
			res.Stats.Extra[CounterLazyRecords])
	}
	original, err := mr.Run(prefixJob(nil, 2), queries(60))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutput(t, original, res)
}

// TestPaperExampleDataSizes reproduces §4.1's arithmetic: for the query
// "watch how i met your mother online" (34 chars) with every prefix on
// one reduce task, the original ships O(n²) ≈ 1751 payload chars, EagerSH
// ≈ 629 (still quadratic in the keys), LazySH ≈ 35 (linear).
func TestPaperExampleDataSizes(t *testing.T) {
	one := []mr.Split{&mr.MemSplit{Recs: []mr.Record{
		{Value: []byte("watch how i met your mother online")},
	}}}
	size := func(opts *Options) int64 {
		job := prefixJob(nil, 1)
		if opts == nil {
			res, err := mr.Run(job, one)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats.MapOutputBytes
		}
		res, err := mr.Run(Wrap(job, *opts), one)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.MapOutputBytes
	}
	eagerOpts, lazyOpts := Adaptive0(), Options{Strategy: LazyOnly}
	orig, eager, lazy := size(nil), size(&eagerOpts), size(&lazyOpts)
	if !(lazy < eager && eager < orig) {
		t.Fatalf("size ordering violated: lazy=%d eager=%d orig=%d", lazy, eager, orig)
	}
	// Framing overhead aside, the ratios should be roughly 35 : 629 : 1751.
	if lazy*8 > eager {
		t.Errorf("lazy (%d) should be far below eager (%d)", lazy, eager)
	}
	if eager*2 > orig {
		t.Errorf("eager (%d) should be well below original (%d)", eager, orig)
	}
	// AdaptiveSH with one partition must match LazySH's choice.
	adaptiveOpts := AdaptiveInf()
	if a := size(&adaptiveOpts); a > lazy+8 {
		t.Errorf("adaptive (%d) should track lazy (%d) here", a, lazy)
	}
}

func TestWrapPreservesJobConfig(t *testing.T) {
	job := countJob()
	w := Wrap(job, AdaptiveInf())
	if w.NumReduceTasks != job.NumReduceTasks || w.Partitioner != nil && job.Partitioner == nil {
		t.Error("wrap should preserve job config")
	}
	if w.NewCombiner != nil {
		t.Error("combiner should be dropped when MapCombiner is false")
	}
	w2 := Wrap(job, Options{MapCombiner: true})
	if w2.NewCombiner == nil {
		t.Error("combiner should be kept (transformed) when MapCombiner is true")
	}
}

// countingPartitioner counts Partition calls across a job's tasks.
type countingPartitioner struct {
	inner mr.Partitioner
	calls *atomic.Int64
}

func (p countingPartitioner) Partition(key []byte, n int) int {
	p.calls.Add(1)
	return p.inner.Partition(key, n)
}

// TestPartitionRunsOncePerRecord: the AntiMapper partitions what a Map
// call emits to encode it per partition, and hands the engine's collector
// that partition instead of having it computed again; a one-record call
// it does not partition at all. Either way the job's Partitioner runs
// once per record the original Map emitted.
func TestPartitionRunsOncePerRecord(t *testing.T) {
	for _, base := range []*mr.Job{prefixJob(nil, 4), identityJob()} {
		var calls atomic.Int64
		base.Partitioner = countingPartitioner{mr.HashPartitioner{}, &calls}
		res, err := mr.Run(Wrap(base, Options{Strategy: EagerOnly}), queries(120))
		if err != nil {
			t.Fatal(err)
		}
		if want := res.Stats.Extra[CounterOrigMapRecords]; calls.Load() != want {
			t.Errorf("%s: %d Partition calls for %d original map output records", base.Name, calls.Load(), want)
		}
	}
}

// TestPrePartitionedEmitKeepsEngineChecks: a partition handed to the
// collector is still range-checked, and still held to AlignedInput.
func TestPrePartitionedEmitKeepsEngineChecks(t *testing.T) {
	outOfRange := prefixJob(mr.PartitionerFunc(func([]byte, int) int { return 99 }), 4)
	if _, err := mr.Run(Wrap(outOfRange, Options{Strategy: EagerOnly}), queries(20)); err == nil ||
		!strings.Contains(err.Error(), "partitioner returned 99") {
		t.Errorf("out-of-range partition: error = %v", err)
	}
	misaligned := prefixJob(nil, 4)
	misaligned.AlignedInput = true
	splits := []mr.Split{queries(20)[0], &mr.MemSplit{}, &mr.MemSplit{}, &mr.MemSplit{}}
	if _, err := mr.Run(Wrap(misaligned, Options{Strategy: EagerOnly}), splits); !errors.Is(err, mr.ErrMisaligned) {
		t.Errorf("off-diagonal partition under AlignedInput: error = %v, want ErrMisaligned", err)
	}
}
