package querysuggest

import (
	"bytes"
	"testing"

	"repro/internal/anticombine"
	"repro/internal/datagen"
	"repro/internal/monoid"
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
// table already counts updates its count in place, whether the state
// holds it inline or in its table.
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
	if got := countOf(counts, "weather tomorrow"); got != 2*102 {
		t.Errorf("count = %d, want %d", got, 2*102)
	}
	if counts, err = m.Absorb(counts, EncodeValue(1, []byte("weather today"))); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if counts, err = m.Absorb(counts, value); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("absorbing a known query into a table allocates %v times, want 0", allocs)
	}
	if got := countOf(counts, "weather tomorrow"); got != 2*203 {
		t.Errorf("count = %d, want %d", got, 2*203)
	}
}

// countOf reads query's count from s.
func countOf(s QueryCounts, query string) uint64 {
	if s.one && s.query == query {
		return s.count
	}
	if c := s.more[query]; c != nil {
		return *c
	}
	return 0
}

// TestMapDoesNotAllocate: Map emits every prefix with EncodeValue(1,
// query) from a buffer it reuses, so a call allocates nothing.
func TestMapDoesNotAllocate(t *testing.T) {
	m := NewJob(Config{}, false).NewMapper()
	line := []byte("weather tomorrow")
	want := EncodeValue(1, line)
	var keys []string
	check := mr.EmitterFunc(func(k, v []byte) error {
		if !bytes.Equal(v, want) {
			t.Errorf("key %q: value %q, want %q", k, v, want)
		}
		keys = append(keys, string(k))
		return nil
	})
	for range 2 { // the second call reuses the first call's buffer
		keys = keys[:0]
		if err := m.Map(nil, line, check); err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(line) || keys[0] != "w" || keys[len(keys)-1] != string(line) {
			t.Fatalf("emitted keys %q, want every prefix of %q", keys, line)
		}
	}
	discard := mr.EmitterFunc(func(_, _ []byte) error { return nil })
	if allocs := testing.AllocsPerRun(100, func() {
		if err := m.Map(nil, line, discard); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Map allocates %v times per call, want 0", allocs)
	}
}

// FuzzFinalTop checks finalTop's line against FormatTop over the same
// counts. Each byte of data is one absorbed value: its high nibble is
// the count (small, so counts tie), its low three bits the query's
// length, and that many following bytes spell the query over "abcd", so
// queries repeat and share prefixes. Values alternate between two states
// and the second's emitted partials are absorbed into the first, so the
// line is rendered from an inline state, a promoted one or a combination
// of either; k runs from 1 to 10, past the
// stack-held top and past the number of queries.
func FuzzFinalTop(f *testing.F) {
	f.Add([]byte{}, uint8(4))                          // empty state
	f.Add([]byte{0x31, 0}, uint8(4))                   // one query
	f.Add([]byte{0x31, 0, 0x31, 1, 0x31, 2}, uint8(1)) // ties on count
	f.Add([]byte{0x12, 0, 1, 0x23, 0, 1, 2, 0x51, 0, 0x14, 3, 3, 3, 3}, uint8(9))
	f.Add([]byte{0xf7, 0, 1, 2, 3, 0, 1, 2, 0x07, 0, 1, 2, 3, 0, 1, 2}, uint8(2))
	m := Counts{}
	f.Fuzz(func(t *testing.T, data []byte, kb uint8) {
		k := 1 + int(kb%10)
		want := make(map[string]uint64)
		var halves [2]QueryCounts
		for i := 0; len(data) > 0; i++ {
			b := data[0]
			n := min(int(b&7), len(data)-1)
			q := make([]byte, n)
			for j := range q {
				q[j] = 'a' + data[1+j]%4
			}
			data = data[1+n:]
			var err error
			if halves[i%2], err = m.Absorb(halves[i%2], EncodeValue(uint64(b>>4), q)); err != nil {
				t.Fatal(err)
			}
			want[string(q)] += uint64(b >> 4)
		}
		s := halves[0]
		if err := m.Emit([]byte("p"), halves[1], mr.EmitterFunc(func(_, v []byte) (err error) {
			s, err = m.Absorb(s, v)
			return err
		})); err != nil {
			t.Fatal(err)
		}
		var got []string
		if err := finalTop(k)([]byte("p"), s, mr.EmitterFunc(func(key, v []byte) error {
			got = append(got, string(key)+"="+string(v))
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		if line := "p=" + FormatTop(want, k); len(got) != 1 || got[0] != line {
			t.Fatalf("finalTop(%d) emitted %q, FormatTop renders %q", k, got, line)
		}
	})
}

// BenchmarkCountsFold folds one qs_lazy-shaped reduce partition — every
// prefix of the 80 k-query log's lines that Prefix-1 sends to reduce
// task 0 of 8 — through the fold table of the job's reducer, as the fold
// reducer drives it when every line arrives as LazySH: a line's prefixes
// are absorbed at its one-byte key group, the table is measured whenever
// its charge passes the 256 KiB limit the benchmark's qs_lazy sets (and
// spilled, here to a discarding emitter, unless its states measure under
// half of it), and each group's states are finalized into top-5 lines
// before the next group begins.
func BenchmarkCountsFold(b *testing.B) {
	log := datagen.NewQueryLog(datagen.QueryLogConfig{Seed: 2014, Queries: 80000})
	type pair struct{ key, value []byte }
	var groups [256][]pair
	for i := 0; i < log.Len(); i++ {
		q := []byte(log.Record(i).Query)
		if len(q) == 0 || (PrefixPartitioner{K: 1}).Partition(q, 8) != 0 {
			continue
		}
		v := EncodeValue(1, q)
		for j := 1; j <= len(q); j++ {
			groups[q[0]] = append(groups[q[0]], pair{q[:j], v})
		}
	}
	newReducer := NewJob(Config{}, false).NewReducer
	discard := mr.EmitterFunc(func(_, _ []byte) error { return nil })
	const limit = 256 << 10
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		table := newReducer().(monoid.Folder).FoldTable()
		for first, pairs := range groups {
			if len(pairs) == 0 {
				continue
			}
			table.Begin([]byte{byte(first)})
			for _, p := range pairs {
				if err := table.Absorb(p.key, p.value); err != nil {
					b.Fatal(err)
				}
				if table.Charge() <= limit {
					continue
				}
				if n, err := table.Measure(); err != nil {
					b.Fatal(err)
				} else if n >= limit/2 {
					if err := table.Emit(discard); err != nil {
						b.Fatal(err)
					}
				}
			}
			for _, ok := table.Min(); ok; _, ok = table.Min() {
				if err := table.FinalizeMin(discard); err != nil {
					b.Fatal(err)
				}
			}
		}
		table.Release()
	}
}
