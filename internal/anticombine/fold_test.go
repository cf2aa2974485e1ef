package anticombine

import (
	"testing"

	"repro/internal/bytesx"
	"repro/internal/datagen"
	"repro/internal/monoid"
	"repro/internal/mr"
	"repro/internal/workloads/wordcount"
)

// TestWrapPicksFoldPath: WordCount's declared Sum combiner with flag C
// takes the fold path, and every job property the fold depends on
// sends Wrap back to the AntiReducer's combine mode. Either way the
// output is the Original's.
func TestWrapPicksFoldPath(t *testing.T) {
	text := datagen.NewRandomText(datagen.RandomTextConfig{Seed: 5, Lines: 300, WordsPerLine: 20})
	splits := wordcount.Splits(text, 3)
	orig, err := mr.Run(wordcount.NewJob(4), splits)
	if err != nil {
		t.Fatal(err)
	}
	sum := monoid.Combiner(wordcount.Sum{})
	for _, tc := range []struct {
		name string
		edit func(*mr.Job, *Options)
		fold bool
	}{
		{"declared monoid", func(*mr.Job, *Options) {}, true},
		{"custom KeyCompare", func(j *mr.Job, _ *Options) { j.KeyCompare = bytesx.Bytes }, false},
		{"custom GroupCompare", func(j *mr.Job, _ *Options) { j.GroupCompare = bytesx.Bytes }, false},
		{"DisableSharedCombine", func(_ *mr.Job, o *Options) { o.DisableSharedCombine = true }, false},
		{"opaque combiner", func(j *mr.Job, _ *Options) {
			j.NewCombiner = func() mr.Reducer { return opaqueReducer{sum()} }
		}, false},
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
}
