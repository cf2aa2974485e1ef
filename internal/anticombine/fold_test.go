package anticombine

import (
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bytesx"
	"repro/internal/datagen"
	"repro/internal/iokit"
	"repro/internal/monoid"
	"repro/internal/mr"
	"repro/internal/workloads/querysuggest"
	"repro/internal/workloads/scanshare"
	"repro/internal/workloads/wordcount"
)

// TestWrapPicksFoldPath: WordCount's declared Sum combiner with flag C
// takes the fold path, and every job property the fold depends on
// sends Wrap back to the AntiReducer's combine mode. Its declared Sum
// reducer likewise folds unless one of those properties sends it back
// to Shared, and so does a Sum combiner serving as the reducer. Either
// way the output is the Original's.
func TestWrapPicksFoldPath(t *testing.T) {
	text := datagen.NewRandomText(datagen.RandomTextConfig{Seed: 5, Lines: 300, WordsPerLine: 20})
	splits := wordcount.Splits(text, 3)
	orig, err := mr.Run(wordcount.NewJob(4), splits)
	if err != nil {
		t.Fatal(err)
	}
	sum := monoid.Combiner(wordcount.Sum{})
	for _, tc := range []struct {
		name       string
		edit       func(*mr.Job, *Options)
		fold       bool
		reduceFold bool
	}{
		{"declared monoid", func(*mr.Job, *Options) {}, true, true},
		{"custom KeyCompare", func(j *mr.Job, _ *Options) { j.KeyCompare = bytesx.Bytes }, false, false},
		{"custom GroupCompare", func(j *mr.Job, _ *Options) { j.GroupCompare = bytesx.Bytes }, false, false},
		{"DisableSharedCombine", func(_ *mr.Job, o *Options) { o.DisableSharedCombine = true }, false, false},
		{"opaque combiner", func(j *mr.Job, _ *Options) {
			j.NewCombiner = func() mr.Reducer { return opaqueReducer{sum()} }
		}, false, true},
		{"Combiner as Reducer", func(j *mr.Job, _ *Options) { j.NewReducer = sum }, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, opts := wordcount.NewJob(4), Options{MapCombiner: true}
			tc.edit(job, &opts)
			w := Wrap(job, opts)
			c := w.NewCombiner()
			if _, folds := c.(*foldCombiner); folds != tc.fold {
				t.Fatalf("Wrap's map-side combiner is %T, fold path %v, want %v", c, folds, tc.fold)
			}
			if _, ok := c.(*antiReducer); ok == tc.fold {
				t.Fatalf("Wrap's map-side combiner is %T", c)
			}
			r := w.NewReducer()
			if _, folds := r.(*foldReducer); folds != tc.reduceFold {
				t.Fatalf("Wrap's reducer is %T, fold path %v, want %v", r, folds, tc.reduceFold)
			}
			res, err := mr.Run(w, splits)
			if err != nil {
				t.Fatal(err)
			}
			if !monoid.RecordsEqual(res.SortedOutput(), orig.SortedOutput()) {
				t.Fatal("output differs from the Original's")
			}
			if res.Stats.CombineInputRecords == 0 {
				t.Error("the transformed combiner never ran")
			}
		})
	}
	// Flag C off: no map-side combiner at all.
	if w := Wrap(wordcount.NewJob(4), Options{}); w.NewCombiner != nil {
		t.Error("Wrap kept a map-side combiner without MapCombiner")
	}
	// scanshare's COUNT/SUM reducer is a declared commutative monoid
	// over Cloud lines: its wrapped reducer folds too.
	t.Run("scanshare", func(t *testing.T) {
		cloud := datagen.NewCloud(datagen.CloudConfig{Seed: 9, Records: 400})
		cfg := scanshare.Config{Queries: 6, Reducers: 3}
		splits := scanshare.Splits(cloud, 3)
		w := Wrap(scanshare.NewJob(cfg), AdaptiveInf())
		r := w.NewReducer()
		if _, ok := r.(*foldReducer); !ok {
			t.Fatalf("Wrap's scanshare reducer is %T, want the fold path", r)
		}
		want, err := mr.Run(scanshare.NewJob(cfg), splits)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mr.Run(w, splits)
		if err != nil {
			t.Fatal(err)
		}
		if !monoid.RecordsEqual(res.SortedOutput(), want.SortedOutput()) {
			t.Fatal("output differs from the Original's")
		}
	})
}

// spillCountingFS counts the Shared-format spill and merge runs created
// on it, by any task.
type spillCountingFS struct {
	iokit.FS
	spills, merges atomic.Int64
}

// Create implements iokit.FS.
func (fs *spillCountingFS) Create(name string) (io.WriteCloser, error) {
	switch {
	case strings.Contains(name, "/shared-spill"):
		fs.spills.Add(1)
	case strings.Contains(name, "/shared-merge"):
		fs.merges.Add(1)
	}
	return fs.FS.Create(name)
}

// TestReduceFoldReplacesShared: a declared commutative reducer folds on
// the reduce side instead of staging its values in Shared. Under a tiny
// memory limit its state table spills and merges, counted as Shared's
// spills and merges, one per run file, and the output is the
// Original's. The Shared path's reducer, under DisableSharedCombine,
// spills its raw values more often.
func TestReduceFoldReplacesShared(t *testing.T) {
	log := datagen.NewQueryLog(datagen.QueryLogConfig{Seed: 3, Queries: 600, DistinctQueries: 90, VocabWords: 200})
	splits := querysuggest.Splits(log, 4)
	newJob := func() *mr.Job {
		return querysuggest.NewJob(querysuggest.Config{Partitioner: querysuggest.PrefixPartitioner{K: 1}, Reducers: 3}, false)
	}
	orig, err := mr.Run(newJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	var foldSpills int64
	for _, shared := range []bool{false, true} {
		opts := Options{SharedMemLimitBytes: 2 << 10, SharedMergeFactor: 2, DisableSharedCombine: shared}
		w := Wrap(newJob(), opts)
		if _, folds := w.NewReducer().(*foldReducer); folds == shared {
			t.Fatalf("DisableSharedCombine=%v: Wrap's reducer is %T", shared, w.NewReducer())
		}
		fs := &spillCountingFS{FS: iokit.NewMemFS()}
		w.FS = fs
		res, err := mr.Run(w, splits)
		if err != nil {
			t.Fatal(err)
		}
		if !monoid.RecordsEqual(res.SortedOutput(), orig.SortedOutput()) {
			t.Fatalf("DisableSharedCombine=%v: output differs from the Original's", shared)
		}
		spills, merges := res.Stats.Extra[CounterSharedSpills], res.Stats.Extra[CounterSharedMerges]
		if spills != fs.spills.Load() || merges != fs.merges.Load() {
			t.Errorf("DisableSharedCombine=%v: counters say %d spills, %d merges; %d and %d runs written",
				shared, spills, merges, fs.spills.Load(), fs.merges.Load())
		}
		if !shared {
			if spills == 0 || merges == 0 {
				t.Fatalf("the state table never spilled and merged (%d spills, %d merges)", spills, merges)
			}
			foldSpills = spills
		} else if spills <= foldSpills {
			t.Errorf("Shared spilled %d times, the state table %d", spills, foldSpills)
		}
	}
}
