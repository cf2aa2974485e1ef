package mr

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/bytesx"
	"repro/internal/datagen"
)

// BenchmarkWordCountPipeline drives the full engine — collect, sort,
// spill, shuffle, merge, reduce — on a medium word-count job.
func BenchmarkWordCountPipeline(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "word%03d ", i%50)
	}
	line := sb.String()
	var splits []Split
	for i := 0; i < 8; i++ {
		recs := make([]Record, 100)
		for j := range recs {
			recs[j] = Record{Value: []byte(line)}
		}
		splits = append(splits, &MemSplit{Recs: recs})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		job := wordCountJob(true)
		job.DiscardOutput = true
		if _, err := Run(job, splits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapBufferSpill isolates the map-side sort-and-spill path:
// bucketed sort, pooled buffers, and parallel run writes.
func BenchmarkMapBufferSpill(b *testing.B) {
	job := wordCountJob(false)
	job.NumReduceTasks = 4 // matches the benchmark's &3 partitioner
	job.SortBufferBytes = 64 << 10
	j, err := job.normalized()
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%06d", (i*7919)%1000))
	}
	value := []byte("v")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		counters := &Counters{}
		buf := newMapBuffer(j, j.FS, counters, 0, 0)
		for rep := 0; rep < 20; rep++ {
			for _, k := range keys {
				if err := buf.add(int(k[len(k)-1]&3), k, value); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := buf.finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapPathE2E drives full word-count runs with forced spills
// end to end (collect, bucketed sort, spill, merge, shuffle, reduce).
func BenchmarkMapPathE2E(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "word%03d ", i%80)
	}
	line := sb.String()
	var splits []Split
	for i := 0; i < 4; i++ {
		recs := make([]Record, 60)
		for j := range recs {
			recs[j] = Record{Value: []byte(line)}
		}
		splits = append(splits, &MemSplit{Recs: recs})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		job := wordCountJob(true)
		job.SortBufferBytes = 32 << 10
		job.DiscardOutput = true
		if _, err := Run(job, splits); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPartition keeps BenchmarkHashPartitioner's result live.
var benchPartition int

// BenchmarkHashPartitioner hashes a word-sized key (wc_eager's map
// output) and a 145-byte line (sort_plain's) into 8 partitions.
func BenchmarkHashPartitioner(b *testing.B) {
	for _, n := range []int{6, 145} {
		b.Run(fmt.Sprintf("key=%dB", n), func(b *testing.B) {
			key := []byte(strings.Repeat("abcdefghijklmnopqrstuvwxyz ", 6)[:n])
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				benchPartition = HashPartitioner{}.Partition(key, 8)
			}
		})
	}
}

// BenchmarkSpillSort isolates the spill's (partition, key) sort over one
// full collect buffer of 8 partitions: "words" holds zipf-drawn words of
// at most 8 bytes (wc_eager's map output), "lines" whole lines of 10–29
// words (sort_plain's). Each op restores insertion order and sorts.
func BenchmarkSpillSort(b *testing.B) {
	text := datagen.NewRandomText(datagen.RandomTextConfig{Seed: 7, Lines: 20_000, WordsPerLine: 20})
	rng := datagen.NewRNG(7)
	zipf := datagen.NewZipf(10_000, 1.05)
	vocab := make([][]byte, zipf.N())
	for i := range vocab {
		vocab[i] = make([]byte, 1+rng.Intn(8))
		for j := range vocab[i] {
			vocab[i][j] = byte('a' + rng.Intn(26))
		}
	}
	for _, bc := range []struct {
		name string
		key  func(i int) []byte
		n    int
	}{
		{"words", func(int) []byte { return vocab[zipf.Sample(rng)] }, 200_000},
		{"lines", func(i int) []byte { return []byte(text.Line(i)) }, text.Len()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := sortTestBuffer(b, 8)
			part := HashPartitioner{}
			for i := 0; i < bc.n; i++ {
				k := bc.key(i)
				if err := buf.add(part.Partition(k, 8), k, []byte("1")); err != nil {
					b.Fatal(err)
				}
			}
			input := slices.Clone(buf.entries)
			buf.sortByPartitionKey() // warm: grows the bucketing scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.entries = append(buf.entries[:0], input...)
				buf.sortByPartitionKey()
			}
		})
	}
}

// BenchmarkMergeIter isolates the k-way merge: "merge" drains the merged
// stream record by record, "grouped" walks it the way a reduce task
// does, one single-record key group at a time (Sort's shape), where the
// only allocations left are the merge's own set-up. Both call a custom
// comparator; "raw" drains the merge under the default raw-bytes order.
func BenchmarkMergeIter(b *testing.B) {
	const streams, perStream = 16, 1000
	keys := make([][]byte, streams*perStream)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%06d", i))
	}
	cmp := func(a, b []byte) int { return stringsCompare(string(a), string(b)) }
	newMerge := func(b *testing.B, cmp bytesx.Compare) *mergeIter {
		in := make([]recordStream, streams)
		for s := range in {
			i := s
			in[s] = streamFunc(func() ([]byte, []byte, error) {
				if i >= len(keys) {
					return nil, nil, io.EOF
				}
				k := keys[i]
				i += streams
				return k, k, nil
			})
		}
		m, err := newMergeIter(in, cmp)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := drainStreams(mergeAsStream{newMerge(b, cmp)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grouped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := newGroupedIter(newMerge(b, cmp), cmp)
			groups := 0
			for {
				_, ok, err := g.nextGroup()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				if err := g.groupValues().drain(); err != nil {
					b.Fatal(err)
				}
				groups++
			}
			if groups != len(keys) {
				b.Fatalf("%d groups, want %d", groups, len(keys))
			}
		}
	})
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := drainStreams(mergeAsStream{newMerge(b, nil)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMergeIterSegments measures the k-way merge over real segment
// files — the reader side of the pooled record readers.
func BenchmarkMergeIterSegments(b *testing.B) {
	j, err := wordCountJob(false).normalized()
	if err != nil {
		b.Fatal(err)
	}
	segs := make([]SegmentInfo, 16)
	for i := range segs {
		seg, err := writeTestSegment(j, j.FS, fmt.Sprintf("seg%02d", i), 0, i, 1000)
		if err != nil {
			b.Fatal(err)
		}
		segs[i] = seg
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streams := make([]recordStream, len(segs))
		for s, seg := range segs {
			st, err := openSegment(j.Codec, j.FS, seg.File)
			if err != nil {
				b.Fatal(err)
			}
			streams[s] = st
		}
		m, err := newMergeIter(streams, j.mergeCompare())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := drainStreams(mergeAsStream{m}); err != nil {
			b.Fatal(err)
		}
	}
}

// drainStreams fully reads a record stream and counts its records.
func drainStreams(s recordStream) (n int, err error) {
	for {
		_, _, err := s.next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

type mergeAsStream struct{ m *mergeIter }

func (s mergeAsStream) next() ([]byte, []byte, error) { return s.m.next() }

func stringsCompare(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
