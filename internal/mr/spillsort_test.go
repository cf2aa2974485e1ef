package mr

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/bytesx"
)

// sortTestBuffer returns a collect buffer under the default raw-bytes
// key order whose sort buffer is large enough that add never spills.
func sortTestBuffer(tb testing.TB, parts int) *mapBuffer {
	tb.Helper()
	job := wordCountJob(false)
	job.NumReduceTasks = parts
	job.SortBufferBytes = 64 << 20
	j, err := job.normalized()
	if err != nil {
		tb.Fatal(err)
	}
	if !j.rawKeyOrder {
		tb.Fatal("a nil KeyCompare did not select the raw key order")
	}
	b := newMapBuffer(j, j.FS, &Counters{}, 0, 0)
	tb.Cleanup(b.release)
	return b
}

// checkSpillSort sorts b's entries and compares the whole result — every
// field, keyOff included, so equal keys must stay in insertion order —
// and the bucket ends against a stable comparison sort on (partition,
// key bytes).
func checkSpillSort(tb testing.TB, b *mapBuffer) {
	tb.Helper()
	want := slices.Clone(b.entries)
	slices.SortStableFunc(want, func(x, y bufEntry) int {
		if x.partition != y.partition {
			return int(x.partition - y.partition)
		}
		return bytes.Compare(b.key(x), b.key(y))
	})
	ends := b.sortByPartitionKey()
	for i := range want {
		if b.entries[i] != want[i] {
			tb.Fatalf("entry %d of %d is %+v (key %q), want %+v (key %q)",
				i, len(want), b.entries[i], b.key(b.entries[i]), want[i], b.key(want[i]))
		}
	}
	start := 0
	for p, end := range ends {
		for _, e := range b.entries[start:end] {
			if int(e.partition) != p {
				tb.Fatalf("bucket %d [%d, %d) holds an entry of partition %d", p, start, end, e.partition)
			}
		}
		start = end
	}
	if start != len(want) {
		tb.Fatalf("buckets end at %d of %d entries", start, len(want))
	}
}

// randKey draws a key of n bytes from alphabet.
func randKey(r *rand.Rand, alphabet string, n int) []byte {
	k := make([]byte, n)
	for i := range k {
		k[i] = alphabet[r.Intn(len(alphabet))]
	}
	return k
}

// spillKeyShapes are the key distributions the spill sort is checked
// over, each aimed at a way an 8-byte prefix can fail to decide.
var spillKeyShapes = []struct {
	name string
	gen  func(r *rand.Rand) []byte
}{
	// Empty keys tie with every zero-padded prefix.
	{"empty-and-short", func(r *rand.Rand) []byte { return randKey(r, "a\x00", r.Intn(3)) }},
	// "ab" and "ab\x00" share a prefix and differ only in length.
	{"zero-bytes", func(r *rand.Rand) []byte { return randKey(r, "\x00\x01a", r.Intn(13)) }},
	{"exactly-8", func(r *rand.Rand) []byte { return randKey(r, "abc", 8) }},
	{"shared-prefix", func(r *rand.Rand) []byte {
		return append([]byte("prefix\x00X"), randKey(r, "ab\x00", r.Intn(6))...)
	}},
	{"all-equal", func(*rand.Rand) []byte { return []byte("one key longer than eight") }},
	{"mixed", func(r *rand.Rand) []byte { return randKey(r, "\x00ab\xff", r.Intn(21)) }},
	// The second radix round, on key bytes 8–15: runs sharing 8 and 16
	// bytes, lengths on both sides of each boundary, keys apart only by
	// trailing zero bytes, and duplicates that must keep insertion order.
	{"shared-16", func(r *rand.Rand) []byte {
		return append([]byte("prefix\x00Xsecond\x00Y"), randKey(r, "ab\x00", r.Intn(4))...)
	}},
	{"lengths-7-to-17", func(r *rand.Rand) []byte {
		n := []int{7, 8, 9, 15, 16, 17}[r.Intn(6)]
		return append([]byte("samepre\x00")[:min(n, 8)], randKey(r, "\x00a", max(n-8, 0))...)
	}},
	{"trailing-zeros", func(r *rand.Rand) []byte {
		base := []string{"prefix\x00Xtail", "prefix\x00Xsecond\x00Y"}[r.Intn(2)]
		return append([]byte(base), make([]byte, r.Intn(4))...)
	}},
	{"duplicates", func(r *rand.Rand) []byte {
		return []byte([]string{"0123456789abcde", "0123456789abcdef", "0123456789abcdef\x00", "01234567"}[r.Intn(4)])
	}},
}

// fillSortBuffer adds n records of the given key shape, with random
// partitions below parts and short random values.
func fillSortBuffer(tb testing.TB, b *mapBuffer, r *rand.Rand, gen func(*rand.Rand) []byte, n, parts int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		if err := b.add(r.Intn(parts), gen(r), randKey(r, "vw", r.Intn(3))); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestSpillSortMatchesStableReference: the radix sort on key prefixes,
// with its undecided runs, must order every spill exactly as a stable
// comparison sort would — across key shapes, buckets of a few entries
// up to thousands, and 1–64 partitions.
func TestSpillSortMatchesStableReference(t *testing.T) {
	seed := int64(20261015)
	r := rand.New(rand.NewSource(seed))
	for _, shape := range spillKeyShapes {
		for _, n := range []int{2, 3, 9} {
			t.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(t *testing.T) {
				b := sortTestBuffer(t, 1)
				fillSortBuffer(t, b, r, shape.gen, n, 1)
				checkSpillSort(t, b)
			})
		}
		for trial := 0; trial < 30; trial++ {
			parts := 1 + r.Intn(64)
			n := r.Intn(3000)
			t.Run(fmt.Sprintf("%s/parts=%d/n=%d", shape.name, parts, n), func(t *testing.T) {
				b := sortTestBuffer(t, parts)
				fillSortBuffer(t, b, r, shape.gen, n, parts)
				checkSpillSort(t, b)
			})
		}
	}
	// One bucket either side of radixTailMin, and one well past it, per
	// shape; their own generator leaves the trials above as they were.
	r = rand.New(rand.NewSource(seed + 1))
	for _, shape := range spillKeyShapes {
		for _, n := range []int{radixTailMin - 1, radixTailMin, 100} {
			t.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(t *testing.T) {
				b := sortTestBuffer(t, 1)
				fillSortBuffer(t, b, r, shape.gen, n, 1)
				checkSpillSort(t, b)
			})
		}
	}
	if t.Failed() {
		t.Logf("seed %d", seed)
	}
}

// FuzzSpillSort checks the spill sort against the same stable reference
// on arbitrary records: the first byte picks the partition count, then
// each record is a partition byte, a key-length byte and the key.
func FuzzSpillSort(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 2, 'a', 'b', 0, 3, 'a', 'b', 0, 0, 0})
	f.Add(append([]byte{3, 1, 12}, "prefix\x00Xtail"...))
	long := []byte{0}
	for i := 0; i < 64; i++ {
		long = append(long, byte(i), byte(i%11), 'k', 'e', 'y', 0, 0, 0, 0, 0, byte(i%3), 'x')
	}
	f.Add(long)
	// Runs past radixTailMin that share 8 and 16 bytes: keys of lengths
	// 7–9 and 15–17, duplicates, and keys apart by a trailing zero byte.
	second := []byte{0}
	for i := 0; i < 3*radixTailMin; i++ {
		key := []byte("prefix\x00Xsecond\x00Y\x00Z")[:[]int{7, 8, 9, 15, 16, 17, 18}[i%7]]
		second = append(append(second, 0, byte(len(key))), key...)
	}
	f.Add(second)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		parts := 1 + int(data[0])%64
		b := sortTestBuffer(t, parts)
		data = data[1:]
		for len(data) >= 2 {
			p, n := int(data[0])%parts, min(int(data[1])%24, len(data)-2)
			if err := b.add(p, data[2:2+n], data[:1]); err != nil {
				t.Fatal(err)
			}
			data = data[2+n:]
		}
		checkSpillSort(t, b)
	})
}

// TestWarmSpillSortDoesNotAllocate: once its scratch has grown, sorting
// a 100 k-entry bucket allocates nothing — the radix sort ping-pongs
// through the bucketing scratch and the undecided runs sort in place.
func TestWarmSpillSortDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	b := sortTestBuffer(t, 1)
	r := rand.New(rand.NewSource(1))
	fillSortBuffer(t, b, r, func(r *rand.Rand) []byte {
		if r.Intn(4) == 0 { // long keys sharing a prefix: undecided runs
			return append([]byte("prefix\x00X"), randKey(r, "abc", 12)...)
		}
		return randKey(r, "abcdefgh", 1+r.Intn(8))
	}, 100_000, 1)
	input := slices.Clone(b.entries)
	b.sortByPartitionKey() // warm: grows the per-partition offsets
	allocs := testing.AllocsPerRun(5, func() {
		b.entries = append(b.entries[:0], input...)
		b.sortByPartitionKey()
	})
	if allocs != 0 {
		t.Errorf("warm spill sort of %d entries made %.1f allocations, want 0", len(input), allocs)
	}
}

// TestCombineGroupsByRawKey: the map-side combiner groups a sorted run
// by prefix and length, reading the arena only past byte 8, so keys that
// share a prefix and a length but differ later, and keys that differ
// only in length ("ab" vs "ab\x00"), must still reach it as separate
// groups — in the spill's combine and in the final merge's (a tiny sort
// buffer forces at least three spills). An explicit KeyCompare takes the
// comparator path through both and must group the same way.
// CombineInputRecords counts every record of a group, read or not: a
// combiner that reads only a group's first value reports what one that
// reads them all does.
func TestCombineGroupsByRawKey(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	want := map[string]int{}
	var recs []Record
	for i := 0; i < 3000; i++ {
		shape := spillKeyShapes[r.Intn(len(spillKeyShapes))]
		k := shape.gen(r)
		want[string(k)]++
		recs = append(recs, Record{Value: k})
	}
	run := func(keyCompare bytesx.Compare, combiner func() Reducer) *Result {
		job := wordCountJob(true)
		job.NewMapper = NewMapFunc(func(_, v []byte, out Emitter) error { return out.Emit(v, []byte("1")) })
		job.SortBufferBytes = 4 << 10
		job.KeyCompare = keyCompare
		if combiner != nil {
			job.NewCombiner = combiner
		}
		res := mustRun(t, job, []Split{&MemSplit{Recs: recs}})
		if res.Stats.Spills < 3 || res.Stats.CombineInputRecords == 0 {
			t.Fatalf("%d spills, %d combined records: the combiner paths did not run", res.Stats.Spills, res.Stats.CombineInputRecords)
		}
		return res
	}
	for _, c := range []struct {
		name string
		cmp  bytesx.Compare
	}{{"raw order", nil}, {"KeyCompare", bytesx.Bytes}} {
		got := outputMap(t, run(c.cmp, nil))
		if len(got) != len(want) {
			t.Errorf("%s: %d distinct keys out, want %d", c.name, len(got), len(want))
		}
		for k, n := range want {
			if got[k] != fmt.Sprint(n) {
				t.Errorf("%s: key %q counted %q, want %d", c.name, k, got[k], n)
			}
		}
	}

	firstOnly := NewReduceFunc(func(key []byte, values ValueIter, out Emitter) error {
		v, _ := values.Next()
		return out.Emit(key, v)
	})
	all, first := run(nil, nil).Stats, run(nil, firstOnly).Stats
	if all.CombineOutputRecords != first.CombineOutputRecords {
		t.Fatalf("combiners emitted %d and %d records: the runs differ before counting", all.CombineOutputRecords, first.CombineOutputRecords)
	}
	if all.CombineInputRecords != first.CombineInputRecords {
		t.Errorf("CombineInputRecords %d for the combiner reading every value, %d for the one reading only the first",
			all.CombineInputRecords, first.CombineInputRecords)
	}
}

// TestMergeIterRawMatchesComparator: the merge heap's raw order (cached
// prefixes, then bytes.Compare) must yield exactly the (key, stream)
// sequence that bytesx.Bytes called as a comparator yields, ties across
// streams included, and that sequence must be the stable sort of every
// stream's records.
func TestMergeIterRawMatchesComparator(t *testing.T) {
	seed := int64(20261016)
	r := rand.New(rand.NewSource(seed))
	type rec struct {
		key    string
		stream int
	}
	for trial := 0; trial < 200; trial++ {
		shape := spillKeyShapes[trial%len(spillKeyShapes)]
		streams := make([][]rec, 1+r.Intn(16))
		var want []rec
		for s := range streams {
			for i := r.Intn(40); i > 0; i-- {
				streams[s] = append(streams[s], rec{string(shape.gen(r)), s})
			}
			slices.SortStableFunc(streams[s], func(x, y rec) int { return bytes.Compare([]byte(x.key), []byte(y.key)) })
			want = append(want, streams[s]...)
		}
		slices.SortStableFunc(want, func(x, y rec) int { return bytes.Compare([]byte(x.key), []byte(y.key)) })
		merge := func(cmp bytesx.Compare) []rec {
			in := make([]recordStream, len(streams))
			for s, recs := range streams {
				in[s] = streamFunc(func() ([]byte, []byte, error) {
					if len(recs) == 0 {
						return nil, nil, io.EOF
					}
					x := recs[0]
					recs = recs[1:]
					return []byte(x.key), []byte{byte(x.stream)}, nil
				})
			}
			m, err := newMergeIter(in, cmp)
			if err != nil {
				t.Fatal(err)
			}
			var got []rec
			for {
				k, v, err := m.next()
				if err == io.EOF {
					return got
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, rec{string(k), int(v[0])})
			}
		}
		raw, viaCmp := merge(nil), merge(bytesx.Bytes)
		if !slices.Equal(raw, viaCmp) {
			t.Fatalf("seed %d trial %d (%s): raw order merged\n%q\ncomparator merged\n%q", seed, trial, shape.name, raw, viaCmp)
		}
		if !slices.Equal(raw, want) {
			t.Fatalf("seed %d trial %d (%s): merged\n%q\nwant\n%q", seed, trial, shape.name, raw, want)
		}
	}
}

// TestCollectBufferRejectsUnaddressableBytes: a bufEntry addresses the
// arena with int32 offsets, so a sort buffer or a single record beyond
// 2 GiB is refused instead of wrapping an offset.
func TestCollectBufferRejectsUnaddressableBytes(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int cannot express the oversized buffer")
	}
	job := wordCountJob(false)
	job.SortBufferBytes = int(int64(math.MaxInt32) + 1)
	if _, err := job.normalized(); !errors.Is(err, errJob) {
		t.Errorf("SortBufferBytes 2 GiB: normalized returned %v, want errJob", err)
	}
	job.SortBufferBytes = math.MaxInt32
	if _, err := job.normalized(); err != nil {
		t.Errorf("SortBufferBytes 2 GiB - 1: normalized returned %v", err)
	}

	if raceEnabled {
		t.Skip("checkptr rejects the unbacked slice below")
	}
	b := sortTestBuffer(t, 1)
	if err := b.add(0, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A slice header claiming 2 GiB over one byte: add must refuse it
	// from its length alone, before reading or copying any of it.
	var one [1]byte
	huge := unsafe.Slice(&one[0], math.MaxInt32)
	if err := b.add(0, []byte("k"), huge); !errors.Is(err, errRecordTooLarge) {
		t.Errorf("a record of 2 GiB + 1 byte: add returned %v, want errRecordTooLarge", err)
	}
	if len(b.entries) != 0 || len(b.arena) != 0 {
		t.Errorf("after the refused record: %d entries, %d arena bytes; want the earlier record spilled and nothing added",
			len(b.entries), len(b.arena))
	}
}
