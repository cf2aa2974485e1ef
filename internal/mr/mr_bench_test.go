package mr

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
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

// stallMapper emits word counts like the plain word-count mapper but
// stalls briefly on each input record, modelling a map task whose input
// arrives over a network or a loaded disk. Latency-bound map tasks are
// where scheduling policy shows: the barrier engine leaves the shuffle
// idle during the stalls, while the pipelined scheduler fetches
// finished maps' segments in that window.
type stallMapper struct {
	MapperBase
	stall time.Duration
}

func (m *stallMapper) Map(key, value []byte, out Emitter) error {
	time.Sleep(m.stall)
	for _, w := range strings.Fields(string(value)) {
		if err := out.Emit([]byte(w), []byte("1")); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkScheduler compares the barrier and pipelined engines on the
// same word-count job: 8 splits (one 4x straggler), 4 workers, TCP
// shuffle, latency-bound maps. Pipelined wall time should be at or
// below barrier — shuffle fetches of completed maps run during the
// straggler's tail instead of after it.
func BenchmarkScheduler(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "word%03d ", i%50)
	}
	line := sb.String()
	var splits []Split
	for i := 0; i < 8; i++ {
		n := 4
		if i == 0 {
			n = 16 // the straggler
		}
		recs := make([]Record, n)
		for j := range recs {
			recs[j] = Record{Value: []byte(line)}
		}
		splits = append(splits, &MemSplit{Recs: recs})
	}
	for _, scheduler := range []string{SchedulerBarrier, SchedulerPipelined} {
		b.Run(scheduler, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				job := wordCountJob(true)
				job.NewMapper = func() Mapper { return &stallMapper{stall: time.Millisecond} }
				job.Scheduler = scheduler
				job.Parallelism = 4
				job.TCPShuffle = true
				job.DiscardOutput = true
				if _, err := Run(job, splits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMapBufferSpill isolates the map-side sort-and-spill path.
// The baseline variant pins the historical configuration (sequential
// spills, no pooling, comparator-driven sort); the default variant runs
// the bucketed sort, pooled buffers, and parallel run writes. Both
// produce byte-identical output (TestMapPathEquivalence), so the delta
// is pure hot-loop cost.
func BenchmarkMapBufferSpill(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		sequential bool
	}{{"baseline", true}, {"default", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			job := wordCountJob(false)
			job.NumReduceTasks = 4 // matches the benchmark's &3 partitioner
			job.SortBufferBytes = 64 << 10
			if cfg.sequential {
				job.SpillParallelism = 1
				job.DisablePooling = true
			}
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
		})
	}
}

// BenchmarkMapPathE2E drives full word-count runs with forced spills,
// comparing the historical sequential/unpooled map path against the
// overhauled default end to end (collect, bucketed sort, spill, merge,
// shuffle, reduce).
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
	for _, cfg := range []struct {
		name       string
		sequential bool
	}{{"baseline", true}, {"default", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				job := wordCountJob(true)
				job.SortBufferBytes = 32 << 10
				job.DiscardOutput = true
				if cfg.sequential {
					job.SpillParallelism = 1
					job.DisablePooling = true
				}
				if _, err := Run(job, splits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeIter isolates the k-way merge: "merge" drains the merged
// stream record by record, "grouped" walks it the way a reduce task
// does, one single-record key group at a time (Sort's shape), where the
// only allocations left are the merge's own set-up.
func BenchmarkMergeIter(b *testing.B) {
	const streams, perStream = 16, 1000
	keys := make([][]byte, streams*perStream)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%06d", i))
	}
	cmp := func(a, b []byte) int { return stringsCompare(string(a), string(b)) }
	newMerge := func(b *testing.B) *mergeIter {
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
			if _, err := drainStreams(mergeAsStream{newMerge(b)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grouped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := newGroupedIter(newMerge(b), cmp)
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
}

// BenchmarkMergeIterSegments measures the k-way merge over real segment
// files — the reader side of the pooled record readers — for the
// unpooled baseline and the pooled default.
func BenchmarkMergeIterSegments(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		noPools bool
	}{{"baseline", true}, {"default", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			job := wordCountJob(false)
			job.DisablePooling = cfg.noPools
			j, err := job.normalized()
			if err != nil {
				b.Fatal(err)
			}
			segs := make([]segment, 16)
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
					st, err := openSegment(j, j.FS, seg)
					if err != nil {
						b.Fatal(err)
					}
					streams[s] = st
				}
				m, err := newMergeIter(streams, j.KeyCompare)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := drainStreams(mergeAsStream{m}); err != nil {
					b.Fatal(err)
				}
			}
		})
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
