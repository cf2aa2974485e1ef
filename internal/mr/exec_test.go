package mr

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/iokit"
)

// fetchTestSources writes two segments for partition 1 into fs, as map
// task 3 would have, and returns their descriptors with a holder address.
func fetchTestSources(t *testing.T, job *Job, fs iokit.FS) []SegmentInfo {
	t.Helper()
	var sources []SegmentInfo
	for i, n := range []int{40, 7} {
		seg, err := writeTestSegment(job, fs, []string{"m3/a", "m3/b"}[i], 1, i, n)
		if err != nil {
			t.Fatal(err)
		}
		seg.Addr = "holder:1"
		sources = append(sources, seg)
	}
	return sources
}

// TestExecFetchTaskInPlace: with no fetch function the sources are
// already readable — the task only meters them and hands them on.
func TestExecFetchTaskInPlace(t *testing.T) {
	job := checksumTestJob(t)
	fs := iokit.NewMemFS()
	sources := fetchTestSources(t, job, fs)
	before, _ := fs.List()

	counters := &Counters{}
	got, err := ExecFetchTask(context.Background(), job, fs, counters, 1, 3, 0, sources, nil)
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, s := range sources {
		n, _ := fs.Size(s.File)
		size += n
	}
	if len(got.Segs) != 2 || got.Segs[0] != sources[0] || got.Segs[1] != sources[1] {
		t.Errorf("segments = %+v, want the sources unchanged", got.Segs)
	}
	st := counters.Snapshot()
	if got.Bytes != size || st.ShuffleBytes != size || st.ReduceInputRecords != 47 {
		t.Errorf("flow %d, shuffle bytes %d, reduce input records %d; want %d, %d, 47",
			got.Bytes, st.ShuffleBytes, st.ReduceInputRecords, size, size)
	}
	if st.ReduceCPU <= 0 {
		t.Error("fetch time was not charged as reduce CPU")
	}
	if after, _ := fs.List(); len(after) != len(before) {
		t.Errorf("in-place fetch changed the file set: %v -> %v", before, after)
	}
}

// TestExecFetchTaskCopies: with a fetch function every source lands
// under an attempt-scoped name, byte-identical and still framed, in
// source order.
func TestExecFetchTaskCopies(t *testing.T) {
	job := checksumTestJob(t)
	remote, local := iokit.NewMemFS(), iokit.NewMemFS()
	sources := fetchTestSources(t, job, remote)
	fetch := func(ctx context.Context, src SegmentInfo) (io.ReadCloser, int64, error) {
		size, err := remote.Size(src.File)
		if err != nil {
			return nil, 0, err
		}
		f, err := remote.Open(src.File)
		return f, size, err
	}

	counters := &Counters{}
	got, err := ExecFetchTask(context.Background(), job, local, counters, 1, 3, 2, sources, fetch)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{job.Workspace + "/r0001/m0003.a2.fetch0000", job.Workspace + "/r0001/m0003.a2.fetch0001"}
	var size int64
	for i, s := range got.Segs {
		want := SegmentInfo{Partition: 1, File: wantNames[i], Records: sources[i].Records, RawBytes: sources[i].RawBytes}
		if s != want {
			t.Errorf("segment %d = %+v, want %+v", i, s, want)
		}
		src, _ := readAllFile(remote, sources[i].File)
		dst, err := readAllFile(local, s.File)
		if err != nil || !bytes.Equal(src, dst) {
			t.Errorf("segment %d: local copy differs from its source (%v)", i, err)
		}
		size += int64(len(src))
	}
	if st := counters.Snapshot(); got.Bytes != size || st.ShuffleBytes != size || st.ReduceInputRecords != 47 {
		t.Errorf("flow %d, shuffle bytes %d, records %d; want %d, %d, 47",
			got.Bytes, st.ShuffleBytes, st.ReduceInputRecords, size, size)
	}
	if got.Time <= 0 {
		t.Error("no transfer time measured")
	}
}

// TestExecFetchTaskFailureCleansUp: when the second source arrives
// corrupted the attempt fails with a *FetchError naming that source and
// wrapping ErrIntegrity, and the first source's copy is gone again.
func TestExecFetchTaskFailureCleansUp(t *testing.T) {
	job := checksumTestJob(t)
	remote, local := iokit.NewMemFS(), iokit.NewMemFS()
	sources := fetchTestSources(t, job, remote)
	fetch := func(ctx context.Context, src SegmentInfo) (io.ReadCloser, int64, error) {
		data, err := readAllFile(remote, src.File)
		if err != nil {
			return nil, 0, err
		}
		if src.File == sources[1].File {
			data[len(data)/2] ^= 0x40
		}
		return io.NopCloser(bytes.NewReader(data)), int64(len(data)), nil
	}

	counters := &Counters{}
	got, err := ExecFetchTask(context.Background(), job, local, counters, 1, 3, 0, sources, fetch)
	var fe *FetchError
	if !errors.As(err, &fe) || fe.Source != sources[1] || !errors.Is(err, ErrIntegrity) {
		t.Fatalf("err = %v, want a FetchError on %s wrapping ErrIntegrity", err, sources[1].File)
	}
	if !isTransientErr(err) {
		t.Error("a corrupted fetch must be retryable")
	}
	if len(got.Segs) != 0 || got.Bytes != 0 {
		t.Errorf("failed attempt returned %+v", got)
	}
	if files, _ := local.List(); len(files) != 0 {
		t.Errorf("failed attempt left files behind: %v", files)
	}
	if n := counters.Extra(CounterFetchIntegrity); n != 1 {
		t.Errorf("%s = %d, want 1", CounterFetchIntegrity, n)
	}

	// An unreachable holder is named the same way, with its own cause.
	down := errors.New("connection refused")
	_, err = ExecFetchTask(context.Background(), job, local, counters, 1, 3, 1, sources,
		func(context.Context, SegmentInfo) (io.ReadCloser, int64, error) { return nil, 0, down })
	if !errors.As(err, &fe) || fe.Source != sources[0] || !errors.Is(err, down) {
		t.Fatalf("err = %v, want a FetchError on %s wrapping the dial error", err, sources[0].File)
	}
}

func readAllFile(fs iokit.FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}
