package monoid_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/monoid"
	"repro/internal/mr"
	"repro/internal/workloads/wordcount"
)

// lineSplit is one split holding each line as a record.
func lineSplit(lines ...string) []mr.Split {
	recs := make([]mr.Record, len(lines))
	for i, l := range lines {
		recs[i] = mr.Record{Value: []byte(l)}
	}
	return []mr.Split{&mr.MemSplit{Recs: recs}}
}

// plainWordCount is WordCount with neither combiner nor in-mapper
// combining: every word reaches the framework as its own record.
func plainWordCount() *mr.Job {
	job := wordcount.NewJob(3)
	job.NewCombiner = nil
	return job
}

// inMapperWordCount is plainWordCount with mapper wrapped in in-mapper
// combining over wordcount's Sum monoid.
func inMapperWordCount(mapper func() mr.Mapper, maxEntries int) *mr.Job {
	job := plainWordCount()
	job.NewMapper = monoid.InMapper(mapper, wordcount.Sum{}, maxEntries)
	return job
}

func counts(t *testing.T, res *mr.Result) map[string]string {
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

func TestInMapperCombiningCorrectness(t *testing.T) {
	input := lineSplit(strings.Repeat("alpha beta gamma alpha ", 500))
	plain, err := mr.Run(plainWordCount(), input)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := mr.Run(inMapperWordCount(plainWordCount().NewMapper, 0), input)
	if err != nil {
		t.Fatal(err)
	}
	got, want := counts(t, combined), counts(t, plain)
	if len(got) != len(want) {
		t.Errorf("%d distinct words, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%q: %q != %q", k, got[k], v)
		}
	}
	// The table collapses per-task duplicates, so far fewer records
	// reach the framework.
	if combined.Stats.MapOutputRecords*10 > plain.Stats.MapOutputRecords {
		t.Errorf("in-mapper combining emitted %d records vs %d plain",
			combined.Stats.MapOutputRecords, plain.Stats.MapOutputRecords)
	}
}

func TestInMapperCombiningFlushesAtCapacity(t *testing.T) {
	// 100 one-word lines cycling over 10 words: a full-size table emits
	// each word once, a 2-entry table is emitted after every second line.
	lines := make([]string, 100)
	for i := range lines {
		lines[i] = "w" + strconv.Itoa(i%10)
	}
	newMapper := plainWordCount().NewMapper
	for _, tc := range []struct {
		maxEntries  int
		min, max    int64
		description string
	}{
		{0, 10, 10, "default table"},
		{2, 90, 100, "tiny table"},
	} {
		res, err := mr.Run(inMapperWordCount(newMapper, tc.maxEntries), lineSplit(lines...))
		if err != nil {
			t.Fatal(err)
		}
		got := counts(t, res)
		if len(got) != 10 {
			t.Errorf("%s: distinct words = %d, want 10", tc.description, len(got))
		}
		for w, c := range got {
			if c != "10" {
				t.Errorf("%s: %s counted %s, want 10", tc.description, w, c)
			}
		}
		if n := res.Stats.MapOutputRecords; n < tc.min || n > tc.max {
			t.Errorf("%s: %d map output records, want %d..%d", tc.description, n, tc.min, tc.max)
		}
	}
}

// cleanupEmitter emits one count from Cleanup, as a mapper that flushes
// its own state at the end of the task does.
type cleanupEmitter struct{ mr.MapperBase }

func (cleanupEmitter) Map(_, _ []byte, _ mr.Emitter) error { return nil }
func (cleanupEmitter) Cleanup(out mr.Emitter) error        { return out.Emit([]byte("tail"), []byte("7")) }

// TestInMapperCombiningKeepsCleanupEmissions: what the inner mapper
// emits from Cleanup is folded and emitted too, not dropped.
func TestInMapperCombiningKeepsCleanupEmissions(t *testing.T) {
	job := inMapperWordCount(func() mr.Mapper { return cleanupEmitter{} }, 0)
	res, err := mr.Run(job, lineSplit("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got := counts(t, res)["tail"]; got != "7" {
		t.Errorf("tail = %q, want 7 (the inner Cleanup's emission)", got)
	}
}
