package mr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/iokit"
)

// mapPathInput is sized to force several spills under a tiny sort
// buffer, so the runs under comparison exercise bucketing, parallel run
// writes, and reduces that merge several runs per map task — not just
// one segment per map.
func mapPathInput() []Split {
	return lines(
		strings.Repeat("alpha beta gamma delta epsilon ", 120),
		strings.Repeat("beta beta zeta eta theta ", 150),
		strings.Repeat("gamma iota kappa alpha ", 90),
		strings.Repeat("lambda mu nu xi omicron pi ", 110),
		strings.Repeat("alpha omega ", 200),
	)
}

// assertSameRun asserts two results carry byte-identical sorted output,
// identical logical counters, and identical per-partition shuffle flows.
func assertSameRun(t *testing.T, aName string, a *Result, bName string, b *Result) {
	t.Helper()
	ra, rb := a.SortedOutput(), b.SortedOutput()
	if len(ra) != len(rb) {
		t.Fatalf("output length differs: %s %d, %s %d", aName, len(ra), bName, len(rb))
	}
	for i := range ra {
		if !bytes.Equal(ra[i].Key, rb[i].Key) || !bytes.Equal(ra[i].Value, rb[i].Value) {
			t.Fatalf("record %d differs: %s %q=%q, %s %q=%q",
				i, aName, ra[i].Key, ra[i].Value, bName, rb[i].Key, rb[i].Value)
		}
	}
	sa, sb := a.Stats, b.Stats
	if sa.MapInputRecords != sb.MapInputRecords ||
		sa.MapOutputRecords != sb.MapOutputRecords ||
		sa.MapOutputBytes != sb.MapOutputBytes ||
		sa.Spills != sb.Spills ||
		sa.ShuffleBytes != sb.ShuffleBytes ||
		sa.ReduceInputRecords != sb.ReduceInputRecords ||
		sa.ReduceOutputRecords != sb.ReduceOutputRecords {
		t.Errorf("logical counters differ:\n%s: %+v\n%s: %+v", aName, sa, bName, sb)
	}
	if fmt.Sprint(a.ShufflePerPartition) != fmt.Sprint(b.ShufflePerPartition) {
		t.Errorf("per-partition flows differ: %v vs %v",
			a.ShufflePerPartition, b.ShufflePerPartition)
	}
}

// runner executes a job: Run, or the fleet's task path over the wire.
type runner func(*Job, []Split) (*Result, error)

// overWire is runOverWire as a runner.
func overWire(compress bool) runner {
	return func(job *Job, splits []Split) (*Result, error) { return runOverWire(job, splits, compress) }
}

// engineShapes calls fn once per codec × transport × spill-pressure
// combination with a subtest name prefix, a constructor for that
// shape's word-count job, and the runner for its transport: tcp=true
// moves every segment through ExecFetchTask over a SegmentServer, as a
// fleet does, Snappy-compressed on the wire when the map output codec
// leaves it uncompressed.
func engineShapes(fn func(name string, mk func(combiner bool) *Job, run runner)) {
	for _, cc := range []struct {
		name string
		c    codec.Codec
	}{{"identity", nil}, {"snappy", codec.Snappy{}}} {
		for _, tcp := range []bool{false, true} {
			run := runner(Run)
			if tcp {
				run = overWire(cc.c == nil)
			}
			for _, tinyBuf := range []bool{false, true} {
				fn(fmt.Sprintf("%s/tcp=%v/tiny=%v", cc.name, tcp, tinyBuf), func(combiner bool) *Job {
					job := wordCountJob(combiner)
					job.Codec = cc.c
					if tinyBuf {
						job.SortBufferBytes = 1 << 10
					}
					return job
				}, run)
			}
		}
	}
}

// assertSequentialSame runs job twice through run — as configured, and
// one task at a time with sequential spills and merges — and asserts
// the two runs are the same run.
func assertSequentialSame(t *testing.T, run runner, mk func() *Job, input []Split) {
	t.Helper()
	seq := mk()
	seq.Parallelism, seq.SpillParallelism = 1, 1
	must := func(job *Job) *Result {
		res, err := run(job, input)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	assertSameRun(t, "sequential", must(seq), "configured", must(mk()))
}

// TestMapPathEquivalence: across codecs, transports, spill pressure and
// combiner settings, the default map path (bucketed sort, parallel
// spill/merge, pooled buffers — poisoned on put in this binary) must
// produce the byte-identical sorted output, logical counters and
// per-partition flows of the strictly sequential configuration.
func TestMapPathEquivalence(t *testing.T) {
	input := mapPathInput()
	engineShapes(func(name string, mk func(combiner bool) *Job, run runner) {
		for _, combiner := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/combiner=%v", name, combiner), func(t *testing.T) {
				assertSequentialSame(t, run, func() *Job { return mk(combiner) }, input)
			})
		}
	})
}

// TestSchedulerEquivalence is the same harness over the worker count:
// scheduling must never show in a run, so the task graph on 1 and on 4
// workers reproduces the sequential run.
func TestSchedulerEquivalence(t *testing.T) {
	input := mapPathInput()
	engineShapes(func(name string, mk func(combiner bool) *Job, run runner) {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", name, par), func(t *testing.T) {
				assertSequentialSame(t, run, func() *Job {
					job := mk(true)
					job.Parallelism = par
					return job
				}, input)
			})
		}
	})
}

// TestMapPathEquivalenceCustomComparator covers the non-raw-key-order
// sort path: a custom (reverse) comparator must disable the inlined
// bytes.Compare fast path and still reproduce the sequential run.
func TestMapPathEquivalenceCustomComparator(t *testing.T) {
	assertSequentialSame(t, Run, func() *Job {
		job := wordCountJob(true)
		job.KeyCompare = func(a, b []byte) int { return bytes.Compare(b, a) }
		job.SortBufferBytes = 1 << 10
		return job
	}, mapPathInput())
}

// TestMapPathEquivalenceMultiPass forces multi-pass merges (tiny sort
// buffer, MergeFactor 2) so the merge passes run under both
// configurations.
func TestMapPathEquivalenceMultiPass(t *testing.T) {
	assertSequentialSame(t, Run, func() *Job {
		job := wordCountJob(true)
		job.SortBufferBytes = 1 << 10
		job.MergeFactor = 2
		return job
	}, mapPathInput())
}

// TestMapPathParallelRace stresses the concurrent paths for the race
// detector: multiple jobs run at once, each with parallel map tasks,
// parallel spill/merge workers, and shared buffer pools, on one shared
// filesystem.
func TestMapPathParallelRace(t *testing.T) {
	input := mapPathInput()
	fs := iokit.NewMemFS()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	results := make([]*Result, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := wordCountJob(true)
			job.Name = fmt.Sprintf("race%d", i)
			job.FS = fs
			job.SortBufferBytes = 1 << 10
			job.Parallelism = 4
			job.SpillParallelism = 4
			results[i], errs[i] = Run(job, input)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for i := 1; i < len(results); i++ {
		assertSameRun(t, "job0", results[0], fmt.Sprintf("job%d", i), results[i])
	}
}

// TestMultiPassMergeContiguousWindow pins the multi-pass merge policy:
// each pass merges the contiguous window of segments with the fewest
// bytes, and no more segments than it takes to reach the merge factor.
// The metered filesystem proves it — with large segments between the
// small ones, the bytes re-read by the merge shrink strictly versus
// merging the first window, and match the policy's simulation exactly.
func TestMultiPassMergeContiguousWindow(t *testing.T) {
	mem := iokit.NewMemFS()
	meter := &iokit.Meter{}
	fs := iokit.Metered(mem, meter)
	job := wordCountJob(false)
	job.MergeFactor = 3
	j, err := job.normalized()
	if err != nil {
		t.Fatal(err)
	}

	// Seven segments, small ones among big ones, with one shared key
	// range so the merged output interleaves. Identity codec: an
	// intermediate's framed-record bytes are exactly the sum of its
	// inputs', and a file's size is framedSize of them.
	recCounts := []int{100, 1, 80, 1, 1, 60, 1}
	segs := make([]SegmentInfo, len(recCounts))
	var wantRecords int64
	for i, n := range recCounts {
		name := fmt.Sprintf("seg%02d", i)
		seg, err := writeTestSegment(j, fs, name, 0, i, n)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = seg
		wantRecords += int64(n)
	}
	sizes := make([]int64, len(segs))
	for i, s := range segs {
		sizes[i] = s.RawBytes
		if size, err := fs.Size(s.File); err != nil || size != framedSize(s.RawBytes) {
			t.Fatalf("%s is %d bytes (%v), want framedSize(%d) = %d", s.File, size, err, s.RawBytes, framedSize(s.RawBytes))
		}
	}

	// Simulate both window choices over the segments' raw sizes.
	first := simulateMergeReads(sizes, j.MergeFactor, false)
	fewest := simulateMergeReads(sizes, j.MergeFactor, true)
	if fewest >= first {
		t.Fatalf("test fixture does not separate policies: fewest-bytes window %d, first window %d", fewest, first)
	}

	meter.Reset()
	merged, err := mergeKeepingInputs(j, fs, "merged", segs)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Records != wantRecords {
		t.Fatalf("merged %d records, want %d", merged.Records, wantRecords)
	}
	if got := meter.ReadBytes(); got != fewest {
		t.Errorf("merge read %d bytes, want the fewest-bytes windows' total %d (the first windows would read %d)",
			got, fewest, first)
	}

	// Intermediate pass files are internal: none may survive the merge.
	files, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.Contains(f, ".pass") {
			t.Errorf("orphaned intermediate file %s", f)
		}
	}
}

// writeTestSegment writes n framed records with segment-unique keys and
// returns its segment descriptor. It goes through the real segment sink
// so the file carries whatever layering (checksums, codec) the job is
// configured with.
func writeTestSegment(job *Job, fs iokit.FS, name string, partition, id, n int) (SegmentInfo, error) {
	sink, err := newSegmentSink(job.Codec, fs, name)
	if err != nil {
		return SegmentInfo{}, err
	}
	var werr error
	for i := 0; i < n; i++ {
		// Keys sort within the segment and interleave across segments.
		k := []byte(fmt.Sprintf("k%06d.%02d", i, id))
		if werr = sink.w.WriteRecord(k, []byte("v")); werr != nil {
			break
		}
	}
	records, rawBytes, err := sink.Close(werr)
	if err != nil {
		return SegmentInfo{}, err
	}
	return SegmentInfo{Partition: partition, File: name, Records: records, RawBytes: rawBytes}, nil
}

// framedSize is the on-disk size of raw identity-codec bytes under the
// CRC32C framing: per block of up to 64 KiB a uvarint(len+1) header and
// four checksum bytes, then the one-byte terminator.
func framedSize(raw int64) int64 {
	size := int64(1)
	for raw > 0 {
		n := min(raw, 64<<10)
		size += int64(len(binary.AppendUvarint(nil, uint64(n)+1))) + 4 + n
		raw -= n
	}
	return size
}

// simulateMergeReads predicts the total bytes a multi-pass merge reads
// from disk given the segments' raw (pre-framing) sizes, the merge
// factor, and the window each pass merges (the contiguous one of fewest
// bytes, or the first). A pass merges just enough segments to reach the
// factor, at most factor of them. With the identity codec an
// intermediate's raw size is the sum of its inputs', and every file read
// costs framedSize of its raw size.
func simulateMergeReads(sizes []int64, factor int, fewestBytes bool) int64 {
	segs := append([]int64(nil), sizes...)
	var read int64
	for len(segs) > factor {
		width := min(factor, len(segs)-factor+1)
		sum := func(at int) (s int64) {
			for _, v := range segs[at : at+width] {
				s += v
			}
			return s
		}
		at := 0
		for i := 1; fewestBytes && i+width <= len(segs); i++ {
			if sum(i) < sum(at) {
				at = i
			}
		}
		inter := sum(at)
		for _, s := range segs[at : at+width] {
			read += framedSize(s)
		}
		segs = append(append(segs[:at:at], inter), segs[at+width:]...)
	}
	for _, s := range segs {
		read += framedSize(s)
	}
	return read
}
