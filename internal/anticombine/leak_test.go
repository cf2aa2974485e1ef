package anticombine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/monoid"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/workloads/wordcount"
)

// spillingShared builds a Shared under heavy spill pressure on fs.
func spillingShared(fs iokit.FS) *Shared {
	return NewShared(SharedConfig{
		KeyCompare:    bytesx.Bytes,
		MemLimitBytes: 64,
		MergeFactor:   2,
		FS:            fs,
	})
}

// fillShared adds enough keyed values to force spills and merges.
func fillShared(t *testing.T, s *Shared, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%03d", i%40)
		v := fmt.Sprintf("value%05d", i)
		if err := s.Add([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spills() == 0 {
		t.Fatal("setup: expected spills")
	}
}

func listFiles(t *testing.T, fs iokit.FS) []string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestSharedDrainLeavesNoFiles is the lifecycle regression: runs
// consumed by PopMinKeyValues must have their spill files deleted as
// they finish, so a fully drained Shared leaves an empty filesystem
// even before Close.
func TestSharedDrainLeavesNoFiles(t *testing.T) {
	fs := iokit.NewMemFS()
	s := spillingShared(fs)
	fillShared(t, s, 400)
	for !s.Empty() {
		if _, _, err := s.PopMinKeyValues(); err != nil {
			t.Fatal(err)
		}
	}
	if names := listFiles(t, fs); len(names) != 0 {
		t.Errorf("drained Shared left %d files: %v", len(names), names)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close after drain: %v", err)
	}
}

// TestSharedCloseRemovesFiles: an abandoned Shared (e.g. a failed task)
// must delete its live run files on Close, not just close the readers.
func TestSharedCloseRemovesFiles(t *testing.T) {
	fs := iokit.NewMemFS()
	s := spillingShared(fs)
	fillShared(t, s, 400)
	if len(listFiles(t, fs)) == 0 {
		t.Fatal("setup: expected live run files")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if names := listFiles(t, fs); len(names) != 0 {
		t.Errorf("Close left %d files: %v", len(names), names)
	}
}

// TestSharedMergeRemovesSourceRuns: after a successful run merge, only
// the merged file may remain on disk — the consumed pre-merge spill
// files must be gone.
func TestSharedMergeRemovesSourceRuns(t *testing.T) {
	fs := iokit.NewMemFS()
	s := spillingShared(fs)
	fillShared(t, s, 400)
	names := listFiles(t, fs)
	if len(names) != s.runs.Len() {
		t.Errorf("%d files on disk for %d live runs: %v", len(names), s.runs.Len(), names)
	}
	s.Close()
}

// TestSharedMergeErrorCleanup: a write failure mid-merge must surface
// the error and remove the partially written merge file. The source runs
// the merge had not finished reading stay open, on disk, until Close
// releases their handles and removes their files.
func TestSharedMergeErrorCleanup(t *testing.T) {
	mem := iokit.NewMemFS()
	flaky := &iokit.FlakyFS{Inner: mem}
	track := &iokit.TrackFS{Inner: flaky}
	s := NewShared(SharedConfig{
		KeyCompare:    bytesx.Bytes,
		MemLimitBytes: 8 << 10,
		MergeFactor:   100, // no merges during fill
		FS:            track,
	})
	value := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 2000; i++ {
		if err := s.Add([]byte(fmt.Sprintf("key%03d", i%40)), value); err != nil {
			t.Fatal(err)
		}
	}

	// About 200 KiB of runs, each holding every key: the merge's first
	// write is its first 64 KiB frame, with every run still being read.
	runs := s.runs.Len()
	flaky.FailWriteAt = 1 // every write from now on fails
	err := s.runs.merge()
	if !errors.Is(err, iokit.ErrInjected) {
		t.Fatalf("merge error = %v, want injected", err)
	}
	after := listFiles(t, mem)
	for _, name := range after {
		if strings.Contains(name, "shared-merge") {
			t.Errorf("partial merge file %s left behind", name)
		}
	}
	if open := s.runs.Len(); open != runs || len(after) != runs || track.OpenHandles() != int64(runs) {
		t.Errorf("after the failed merge: %d runs open, %d files, %d handles; want all %d source runs",
			open, len(after), track.OpenHandles(), runs)
	}
	flaky.FailWriteAt = 0
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := track.OpenHandles(); n != 0 {
		t.Errorf("Close after failed merge left %d handles open", n)
	}
	if names := listFiles(t, mem); len(names) != 0 {
		t.Errorf("Close after failed merge left files: %v", names)
	}
}

// TestSharedSpillErrorCleanup: a write failure while spilling must
// surface the error, close and remove the partially written run file,
// and end the shared-spill span — the spill-side twin of
// TestSharedMergeErrorCleanup.
func TestSharedSpillErrorCleanup(t *testing.T) {
	// The first spill is ~215 KiB of records, written as 64 KiB CRC
	// frames of two writes each (header, payload): writes 1-6 happen
	// inside a record write, writes 7-9 are the final flush (the last
	// frame and the terminator).
	for _, failAt := range []int64{1, 9} {
		mem := iokit.NewMemFS()
		track := &iokit.TrackFS{Inner: &iokit.FlakyFS{Inner: mem, FailWriteAt: failAt}}
		tracer := obs.NewTracer()
		s := NewShared(SharedConfig{
			KeyCompare:    bytesx.Bytes,
			MemLimitBytes: 200 << 10,
			FS:            track,
			Tracer:        tracer,
		})
		var err error
		for i := 0; err == nil && i < 10000; i++ {
			err = s.Add([]byte(fmt.Sprintf("key%04d", i)), []byte("a value of some length"))
		}
		if !errors.Is(err, iokit.ErrInjected) {
			t.Fatalf("fail at write %d: Add error = %v, want injected", failAt, err)
		}
		if n := track.OpenHandles(); n != 0 {
			t.Errorf("fail at write %d: %d handles left open", failAt, n)
		}
		if names := listFiles(t, mem); len(names) != 0 {
			t.Errorf("fail at write %d: partial run file left behind: %v", failAt, names)
		}
		spans := tracer.Spans()
		if len(spans) != 1 || spans[0].Kind != obs.KindSharedSpill {
			t.Errorf("fail at write %d: spans = %+v, want one ended shared-spill span", failAt, spans)
		}
		if err := s.Close(); err != nil {
			t.Errorf("Close after failed spill: %v", err)
		}
	}
}

// TestSharedAdvanceClosesReaderOnError: a read fault in a spill run
// while PopMinKeyValues drains it surfaces as the error, and Close
// still releases every run's handle and file.
func TestSharedAdvanceClosesReaderOnError(t *testing.T) {
	mem := iokit.NewMemFS()
	flaky := &iokit.FlakyFS{Inner: mem}
	track := &iokit.TrackFS{Inner: flaky}
	s := spillingShared(track)
	fillShared(t, s, 400)
	if track.OpenHandles() == 0 {
		t.Fatal("setup: no spill run open")
	}
	flaky.FailReadAt = 1 // every read from now on fails
	var err error
	for err == nil && !s.Empty() {
		_, _, err = s.PopMinKeyValues()
	}
	if !errors.Is(err, iokit.ErrInjected) {
		t.Fatalf("PopMinKeyValues error = %v, want injected", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := track.OpenHandles(); n != 0 {
		t.Errorf("%d handles left open after Close", n)
	}
	if names := listFiles(t, mem); len(names) != 0 {
		t.Errorf("Close left files: %v", names)
	}
}

// TestJobLeavesNoSharedFiles is the end-to-end census: after any job
// whose Shared structures spilled, no shared-spill or shared-merge
// files may remain on the job's filesystem.
func TestJobLeavesNoSharedFiles(t *testing.T) {
	fs := iokit.NewMemFS()
	job := Wrap(prefixJob(nil, 3), Options{
		Strategy:            Adaptive,
		SharedMemLimitBytes: 64,
		SharedMergeFactor:   2,
	})
	job.FS = fs
	res, err := mr.Run(job, queries(200))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Extra[CounterSharedSpills] == 0 {
		t.Fatal("setup: job's Shared never spilled")
	}
	for _, name := range listFiles(t, fs) {
		if strings.Contains(name, "shared-spill") || strings.Contains(name, "shared-merge") {
			t.Errorf("orphaned Shared file after job: %s", name)
		}
	}
}

// TestJobTraceContainsAllSpanKinds runs a spilling job with a tracer
// attached and checks the span taxonomy end to end, including that the
// Chrome export is valid JSON.
func TestJobTraceContainsAllSpanKinds(t *testing.T) {
	tracer := obs.NewTracer()
	job := Wrap(prefixJob(nil, 3), Options{
		Strategy:            Adaptive,
		SharedMemLimitBytes: 64,
		SharedMergeFactor:   2,
	})
	job.Tracer = tracer
	if _, err := mr.Run(job, queries(200)); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, sp := range tracer.Spans() {
		counts[sp.Kind]++
	}
	for _, kind := range []string{obs.KindJob, obs.KindMap, obs.KindFetch,
		obs.KindReduce, obs.KindSharedSpill, obs.KindSharedMerge} {
		if counts[kind] == 0 {
			t.Errorf("no %s spans in trace (got %v)", kind, counts)
		}
	}
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(events) < len(tracer.Spans()) {
		t.Errorf("trace export has %d events for %d spans", len(events), len(tracer.Spans()))
	}
}

// errMapFailed is the error wordsMapper's Map returns on a line "fail".
var errMapFailed = errors.New("map failed")

// wordsMapper emits ("word", "1") per word of a line, fails on a line
// "fail", and counts its Cleanup calls.
type wordsMapper struct{ cleanups *int }

func (wordsMapper) Setup(*mr.TaskInfo, mr.Emitter) error { return nil }

func (m wordsMapper) Map(_, line []byte, out mr.Emitter) error {
	if string(line) == "fail" {
		return errMapFailed
	}
	for _, w := range bytes.Fields(line) {
		if err := out.Emit(w, []byte("1")); err != nil {
			return err
		}
	}
	return nil
}

func (m wordsMapper) Cleanup(mr.Emitter) error { *m.cleanups++; return nil }

// foldTask wraps a job whose combiner and reducer both fold wordcount's
// Sum over wordsMapper under a SharedMemLimitBytes of limit, and returns
// the task info its fold combiner and reducer run under: one partition
// on fs.
func foldTask(cleanups *int, fs iokit.FS, limit int) (*mr.Job, *mr.TaskInfo) {
	job := Wrap(&mr.Job{
		NewMapper:     func() mr.Mapper { return wordsMapper{cleanups} },
		NewReducer:    monoid.Reducer(wordcount.Sum{}, nil),
		NewCombiner:   monoid.Combiner(wordcount.Sum{}),
		Deterministic: true,
	}, Options{Strategy: Adaptive, MapCombiner: true, SharedMemLimitBytes: limit})
	return job, &mr.TaskInfo{
		NumPartitions: 1, Partitioner: mr.HashPartitioner{},
		KeyCompare: bytesx.Bytes, GroupCompare: bytesx.Bytes,
		Counters: &mr.Counters{}, FS: fs,
	}
}

// lazyWords is a LazySH record of a line of n distinct words, each
// prefix followed by four digits.
func lazyWords(prefix string, n int) []byte {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return AppendLazyValue(nil, nil, []byte(strings.Join(words, " ")))
}

// checkFoldCleanup asserts what a failed fold task must leave: the
// error returned, no open handle, no run file, and the reducer-side Map
// object cleaned up once.
func checkFoldCleanup(t *testing.T, err, want error, track *iokit.TrackFS, mem iokit.FS, cleanups int) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Errorf("task error = %v, want %v", err, want)
	}
	if n := track.OpenHandles(); n != 0 {
		t.Errorf("%d handles left open", n)
	}
	if names := listFiles(t, mem); len(names) != 0 {
		t.Errorf("run files left behind: %v", names)
	}
	if cleanups != 1 {
		t.Errorf("Map object cleaned up %d times, want 1", cleanups)
	}
}

// TestFoldReducerSpillErrorCleanup: a write fault while the fold
// reducer spills its states returns the error, and the failing task
// releases its earlier run, its partial run file and its re-executed
// Map object, as the engine calls no Cleanup after an error.
func TestFoldReducerSpillErrorCleanup(t *testing.T) {
	mem := iokit.NewMemFS()
	flaky := &iokit.FlakyFS{Inner: mem}
	track := &iokit.TrackFS{Inner: flaky}
	var cleanups int
	job, info := foldTask(&cleanups, track, 256)
	r := job.NewReducer()
	if _, ok := r.(*foldReducer); !ok {
		t.Fatalf("setup: reducer is %T, want the fold path", r)
	}
	if err := r.Setup(info, discardEmitter{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Reduce([]byte("a0"), &sliceIter{vals: [][]byte{lazyWords("b", 200)}}, discardEmitter{}); err != nil {
		t.Fatal(err)
	}
	if track.OpenHandles() == 0 {
		t.Fatal("setup: the fold reducer holds no spill run")
	}
	flaky.FailWriteAt = 1 // every write from now on fails
	err := r.Reduce([]byte("a1"), &sliceIter{vals: [][]byte{lazyWords("c", 200)}}, discardEmitter{})
	checkFoldCleanup(t, err, iokit.ErrInjected, track, mem, cleanups)
}

// TestFoldReexecErrorCleanup: a re-executed Map that fails fails the
// fold combiner's and the fold reducer's task with its error; the
// reducer's spilled runs are closed and removed, and the Map object is
// cleaned up.
func TestFoldReexecErrorCleanup(t *testing.T) {
	for _, role := range []string{"combiner", "reducer"} {
		t.Run(role, func(t *testing.T) {
			mem := iokit.NewMemFS()
			track := &iokit.TrackFS{Inner: mem}
			var cleanups int
			job, info := foldTask(&cleanups, track, 256)
			r := job.NewCombiner()
			if role == "reducer" {
				r = job.NewReducer()
			}
			if err := r.Setup(info, discardEmitter{}); err != nil {
				t.Fatal(err)
			}
			if err := r.Reduce([]byte("a0"), &sliceIter{vals: [][]byte{lazyWords("b", 200)}}, discardEmitter{}); err != nil {
				t.Fatal(err)
			}
			if role == "reducer" && track.OpenHandles() == 0 {
				t.Fatal("setup: the fold reducer holds no spill run")
			}
			fail := AppendLazyValue(nil, nil, []byte("fail"))
			err := r.Reduce([]byte("a1"), &sliceIter{vals: [][]byte{fail}}, discardEmitter{})
			checkFoldCleanup(t, err, errMapFailed, track, mem, cleanups)
		})
	}
}
