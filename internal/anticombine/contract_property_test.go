package anticombine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/monoid"
	"repro/internal/mr"
	"repro/internal/workloads/wordcount"
)

// The paper's §6 contract as a property of the in-process engine: for
// any deterministic Map and Partitioner, the anti-combined job's output
// equals the original's, whichever encodings are allowed. Each seed
// generates one small job — its Map fan-out, key and value lengths,
// duplicate-value rate, partitioner, combiner, engine settings small
// enough to spill and merge in several passes, and Anti-Combining
// options small enough to spill Shared — and runs it Original,
// EagerOnly, LazyOnly and Adaptive through mr.Run.
//
// The combiner axis decides which transformed map-side combiner runs:
// none; wordcount.Sum declared as a monoid, which Wrap folds into typed
// state (foldReducer); the same Sum behind an opaque mr.Reducer, which
// takes the AntiReducer's Shared path; and the declared Sum under a
// custom (byte-equal) KeyCompare, for which Wrap declines the fold.
// A job with a combiner also declares its reducer as the Sum monoid's,
// which Wrap folds into a key-ordered state table (foldReducer) under
// every combiner but the KeyCompare one. One setting in three sets
// Shared's memory limit to 32 bytes and its merge factor to 2, so that
// the state table spills and merges too.

// contractSeeds is how many generated jobs plain `go test` checks.
const contractSeeds = 60

// contractCase is one generated job: the job itself is rebuilt per run
// (build), since a Job's factories are consumed by one Run at a time.
type contractCase struct {
	desc     string
	splits   []mr.Split
	build    func() *mr.Job
	opts     Options
	combiner combinerKind
	valueLen int
}

// combinerKind is the contract test's combiner axis.
type combinerKind int

const (
	combinerNone       combinerKind = iota
	combinerDeclared                // monoid.Combiner(wordcount.Sum{}): the fold path
	combinerOpaque                  // the same, hidden behind opaqueReducer: the Shared path
	combinerKeyCompare              // declared, but under a custom KeyCompare: fold declined
)

var combinerNames = [...]string{"none", "declared", "opaque", "keyCompare"}

// opaqueReducer hides everything of a reducer but mr.Reducer, so Wrap
// cannot tell it is a monoid's.
type opaqueReducer struct{ mr.Reducer }

// wantFold reports whether Wrap should pick the fold path for the case
// under opts.
func (c contractCase) wantFold(opts Options) bool {
	return c.combiner == combinerDeclared && opts.MapCombiner && !opts.DisableSharedCombine
}

// wantReduceFold reports whether Wrap should pick the fold reducer for
// the case under opts.
func (c contractCase) wantReduceFold(opts Options) bool {
	return c.combiner != combinerNone && c.combiner != combinerKeyCompare && !opts.DisableSharedCombine
}

// firstBytePartitioner routes by the key's first byte — a partitioner
// that, unlike the hash, sends whole key prefixes to one reducer.
type firstBytePartitioner struct{}

func (firstBytePartitioner) Partition(key []byte, n int) int {
	if len(key) == 0 {
		return 0
	}
	return int(key[0]) % n
}

func genContractCase(seed int64) contractCase {
	rng := rand.New(rand.NewSource(seed))
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }

	var (
		nSplits  = 1 + rng.Intn(4)
		perSplit = 5 + rng.Intn(36)
		maxFan   = pick(1, 3, 8)
		nKeys    = pick(3, 20, 200)
		keyLen   = 1 + rng.Intn(12)
		valueLen = rng.Intn(41)
		dupPct   = pick(0, 30, 70, 100)
		combiner = combinerKind(rng.Intn(4))
		combine  = combiner != combinerNone
		prefix   = rng.Intn(2) == 0
		reducers = 1 + rng.Intn(5)
		sortBuf  = pick(1<<10, 2<<10, 4<<20)
		mergeF   = pick(2, 3, 10)
		snappy   = rng.Intn(2) == 0
		opts     = Options{
			T:                   []time.Duration{0, time.Nanosecond, time.Second}[rng.Intn(3)],
			MapCombiner:         rng.Intn(2) == 0,
			SharedMemLimitBytes: pick(256, 2<<10, 0),
		}
	)
	if rng.Intn(3) == 0 {
		// Small enough for the fold reducer's few-byte Sum states to
		// spill, and to merge every third run.
		opts.SharedMemLimitBytes, opts.SharedMergeFactor = 32, 2
	}

	// Map is a deterministic function of its input record alone: the
	// record's bytes seed everything it emits, so a reduce-side
	// re-execution (LazySH) reproduces the call exactly.
	mapper := func(key, value []byte, out mr.Emitter) error {
		h := int64(len(value))
		for _, b := range value {
			h = h*131 + int64(b)
		}
		r := rand.New(rand.NewSource(h))
		shared := genValue(r, combine, valueLen)
		for i, n := 0, r.Intn(maxFan+1); i < n; i++ {
			k := fmt.Sprintf("%0*d", keyLen, r.Intn(nKeys))[:keyLen]
			v := shared
			if r.Intn(100) >= dupPct {
				v = genValue(r, combine, valueLen)
			}
			if err := out.Emit([]byte(k), v); err != nil {
				return err
			}
		}
		return nil
	}

	splits := make([]mr.Split, nSplits)
	for s := range splits {
		recs := make([]mr.Record, perSplit)
		for i := range recs {
			recs[i] = mr.Record{Value: []byte(fmt.Sprintf("input %d/%d/%d", seed, s, i))}
		}
		splits[s] = &mr.MemSplit{Recs: recs}
	}

	build := func() *mr.Job {
		job := &mr.Job{
			Name:            fmt.Sprintf("contract-%d", seed),
			NewMapper:       mr.NewMapFunc(mapper),
			NewReducer:      mr.NewReduceFunc(sortedValuesReduce),
			NumReduceTasks:  reducers,
			SortBufferBytes: sortBuf,
			MergeFactor:     mergeF,
			Deterministic:   true,
		}
		switch combiner {
		case combinerDeclared, combinerKeyCompare:
			job.NewCombiner = monoid.Combiner(wordcount.Sum{})
		case combinerOpaque:
			sum := monoid.Combiner(wordcount.Sum{})
			job.NewCombiner = func() mr.Reducer { return opaqueReducer{sum()} }
		}
		if combine {
			job.NewReducer = monoid.Reducer(wordcount.Sum{}, nil)
		}
		if combiner == combinerKeyCompare {
			job.KeyCompare = func(a, b []byte) int { return bytes.Compare(a, b) }
		}
		if prefix {
			job.Partitioner = firstBytePartitioner{}
		}
		if snappy {
			job.Codec = codec.Snappy{}
		}
		return job
	}
	desc := fmt.Sprintf("splits=%d×%d fan≤%d keys=%d/len%d valueLen=%d dup=%d%% combiner=%s prefixPartitioner=%v reducers=%d sortBuf=%d mergeFactor=%d snappy=%v T=%v mapCombiner=%v sharedMem=%d sharedMergeFactor=%d",
		nSplits, perSplit, maxFan, nKeys, keyLen, valueLen, dupPct, combinerNames[combiner], prefix, reducers, sortBuf, mergeF, snappy,
		opts.T, opts.MapCombiner, opts.SharedMemLimitBytes, opts.SharedMergeFactor)
	return contractCase{desc: desc, splits: splits, build: build, opts: opts, combiner: combiner, valueLen: valueLen}
}

// genValue draws one map-output value: a decimal count when the job
// sums (the Sum monoid's value space), arbitrary bytes otherwise.
func genValue(r *rand.Rand, count bool, valueLen int) []byte {
	if count {
		return []byte(strconv.Itoa(1 + r.Intn(9)))
	}
	v := make([]byte, valueLen)
	for i := range v {
		v[i] = byte('a' + r.Intn(26))
	}
	return v
}

// sortedValuesReduce emits a key's values sorted and joined: the
// contract fixes each group's multiset of values, not their order
// (Anti-Combining re-orders values within a group).
func sortedValuesReduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
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
}

func TestContractOriginalEqualsAntiCombined(t *testing.T) {
	// Runs of the fold reducer, and how many of them spilled and merged
	// state runs.
	var folds, spilled, merged int
	for seed := int64(1); seed <= contractSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := genContractCase(seed)
			replay := fmt.Sprintf("replay: go test ./internal/anticombine -run 'TestContractOriginalEqualsAntiCombined/seed=%d$'\njob: %s", seed, c.desc)
			orig, err := mr.Run(c.build(), c.splits)
			if err != nil {
				t.Fatalf("Original failed: %v\n%s", err, replay)
			}
			want := orig.SortedOutput()
			if c.combiner != combinerNone {
				// The generated values must be in the declared monoid's
				// value space, and the monoid lawful over them.
				err := monoid.CheckLaws(wordcount.Sum{}, monoid.LawConfig{
					Seed:   seed,
					Trials: 16,
					Values: func(r *rand.Rand) [][]byte {
						vals := make([][]byte, 1+r.Intn(8))
						for i := range vals {
							vals[i] = genValue(r, true, c.valueLen)
						}
						return vals
					},
				})
				if err != nil {
					t.Fatalf("%v\n%s", err, replay)
				}
			}
			for _, strategy := range []Strategy{EagerOnly, LazyOnly, Adaptive} {
				opts := c.opts
				opts.Strategy = strategy
				wjob := Wrap(c.build(), opts)
				if wjob.NewCombiner != nil {
					if got := isFold(wjob.NewCombiner()); got != c.wantFold(opts) {
						t.Fatalf("%v: Wrap folds = %v, want %v\n%s", strategy, got, c.wantFold(opts), replay)
					}
				}
				if got := isFold(wjob.NewReducer()); got != c.wantReduceFold(opts) {
					t.Fatalf("%v: Wrap's reducer folds = %v, want %v\n%s", strategy, got, c.wantReduceFold(opts), replay)
				}
				res, err := mr.Run(wjob, c.splits)
				if err != nil {
					t.Fatalf("%v failed: %v\n%s", strategy, err, replay)
				}
				got := res.SortedOutput()
				if !monoid.RecordsEqual(got, want) {
					t.Fatalf("%v output differs from Original: %d records vs %d%s\n%s",
						strategy, len(got), len(want), firstDifference(got, want), replay)
				}
				if c.wantReduceFold(opts) {
					folds++
					if res.Stats.Extra[CounterSharedSpills] > 0 {
						spilled++
					}
					if res.Stats.Extra[CounterSharedMerges] > 0 {
						merged++
					}
				}
			}
		})
	}
	if folds > 0 && (spilled == 0 || merged == 0) {
		t.Errorf("of %d fold reducer runs, %d spilled and %d merged state runs; want some of each", folds, spilled, merged)
	}
	t.Logf("fold reducer runs: %d, %d spilled, %d merged", folds, spilled, merged)
}

// firstDifference describes the first position two outputs diverge at.
func firstDifference(got, want []mr.Record) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if string(got[i].Key) != string(want[i].Key) || string(got[i].Value) != string(want[i].Value) {
			return fmt.Sprintf("; record %d: got %s, want %s", i, mr.FormatRecord(got[i]), mr.FormatRecord(want[i]))
		}
	}
	return ""
}
