package querysuggest

import (
	"testing"

	"repro/internal/anticombine"
	"repro/internal/datagen"
	"repro/internal/mr"
)

func testLog() *datagen.QueryLog {
	return datagen.NewQueryLog(datagen.QueryLogConfig{
		Seed: 11, Queries: 800, DistinctQueries: 120, VocabWords: 300,
	})
}

func runAndCompare(t *testing.T, job *mr.Job, log *datagen.QueryLog) *mr.Result {
	t.Helper()
	res, err := mr.Run(job, Splits(log, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(log, 5)
	got := make(map[string]string)
	for _, r := range res.SortedOutput() {
		got[string(r.Key)] = string(r.Value)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d prefixes, want %d", len(got), len(want))
	}
	for p, w := range want {
		if got[p] != w {
			t.Errorf("prefix %q: got %q want %q", p, got[p], w)
		}
	}
	return res
}

func TestEndToEndMatchesReference(t *testing.T) {
	log := testLog()
	for _, tc := range []struct {
		name string
		part mr.Partitioner
		comb bool
	}{
		{"hash", nil, false},
		{"hash-combiner", nil, true},
		{"prefix1", PrefixPartitioner{K: 1}, false},
		{"prefix5", PrefixPartitioner{K: 5}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runAndCompare(t, NewJob(Config{Partitioner: tc.part, Reducers: 6}, tc.comb), log)
		})
	}
}

func TestAntiCombinedMatchesReference(t *testing.T) {
	log := testLog()
	for _, tc := range []struct {
		name string
		opts anticombine.Options
	}{
		{"adaptive", anticombine.AdaptiveInf()},
		{"eager", anticombine.Adaptive0()},
		{"lazy", anticombine.Options{Strategy: anticombine.LazyOnly}},
		{"alpha", anticombine.AdaptiveAlpha()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := NewJob(Config{Partitioner: PrefixPartitioner{K: 5}, Reducers: 6}, false)
			runAndCompare(t, anticombine.Wrap(job, tc.opts), log)
		})
	}
}

func TestAntiCombinedWithCombinerMatchesReference(t *testing.T) {
	log := testLog()
	// §7.3's setup: combiner present, C = 0 (map combiner off); the
	// combiner still collapses Shared in the reduce phase.
	job := NewJob(Config{Partitioner: PrefixPartitioner{K: 1}, Reducers: 4}, true)
	res := runAndCompare(t, anticombine.Wrap(job, anticombine.AdaptiveInf()), log)
	if res.Stats.CombineInputRecords != 0 {
		t.Error("map-phase combiner should be off under C=0")
	}
}

func TestDataReductionShape(t *testing.T) {
	// Figure 9's qualitative shape: anti-combined map output is much
	// smaller than the original, and Prefix-1 shares more than Hash.
	log := testLog()
	size := func(part mr.Partitioner, wrap bool) int64 {
		job := NewJob(Config{Partitioner: part, Reducers: 6}, false)
		if wrap {
			job = anticombine.Wrap(job, anticombine.AdaptiveInf())
		}
		res, err := mr.Run(job, Splits(log, 5))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.MapOutputBytes
	}
	origHash := size(nil, false)
	antiHash := size(nil, true)
	antiP1 := size(PrefixPartitioner{K: 1}, true)
	if antiHash*2 > origHash {
		t.Errorf("anti (hash) %d not well below original %d", antiHash, origHash)
	}
	if antiP1 >= antiHash {
		t.Errorf("prefix-1 (%d) should share more than hash (%d)", antiP1, antiHash)
	}
}

func TestValueCodec(t *testing.T) {
	v := EncodeValue(42, []byte("sigmod"))
	c, q, err := DecodeValue(v)
	if err != nil || c != 42 || string(q) != "sigmod" {
		t.Errorf("decode = %d %q %v", c, q, err)
	}
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty value should fail")
	}
}

func TestPrefixPartitionerGroupsPrefixes(t *testing.T) {
	p := PrefixPartitioner{K: 1}
	a := p.Partition([]byte("mango"), 7)
	b := p.Partition([]byte("map"), 7)
	c := p.Partition([]byte("m"), 7)
	if a != b || b != c {
		t.Errorf("same first letter must share a partition: %d %d %d", a, b, c)
	}
}

func TestFormatTop(t *testing.T) {
	counts := map[string]uint64{"aa": 3, "bb": 3, "cc": 1, "dd": 9}
	got := FormatTop(counts, 3)
	if got != "dd:9|aa:3|bb:3" {
		t.Errorf("FormatTop = %q", got)
	}
	if FormatTop(nil, 5) != "" {
		t.Error("empty counts should format empty")
	}
}

// TestCountsAbsorbKnownQueryAllocatesNothing: absorbing a query the
// table already counts updates its count in place.
func TestCountsAbsorbKnownQueryAllocatesNothing(t *testing.T) {
	m := Counts{}
	counts := m.Identity()
	value := EncodeValue(2, []byte("weather tomorrow"))
	counts, err := m.Absorb(counts, value)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if counts, err = m.Absorb(counts, value); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("absorbing a known query allocates %v times, want 0", allocs)
	}
	if got := *counts["weather tomorrow"]; got != 2*102 {
		t.Errorf("count = %d, want %d", got, 2*102)
	}
}
