package mr

import (
	"context"
	"testing"

	"repro/internal/iokit"
)

// identityReduceJob emits every (key, value) it is given; the reduce
// side of a sort.
func identityReduceJob() *Job {
	job, err := (&Job{
		Name:      "identity",
		NewMapper: NewMapFunc(func(k, v []byte, out Emitter) error { return out.Emit(k, v) }),
		NewReducer: NewReduceFunc(func(key []byte, values ValueIter, out Emitter) error {
			for {
				v, ok := values.Next()
				if !ok {
					return nil
				}
				if err := out.Emit(key, v); err != nil {
					return err
				}
			}
		}),
	}).normalized()
	if err != nil {
		panic(err)
	}
	return job
}

// writeSortedSegment writes n records of valueLen-byte values under
// ascending keys to name.
func writeSortedSegment(tb testing.TB, job *Job, fs iokit.FS, name string, n, valueLen int) SegmentInfo {
	tb.Helper()
	sink, err := newSegmentSink(job.Codec, fs, name)
	if err != nil {
		tb.Fatal(err)
	}
	key, value := []byte("k00000000"), make([]byte, valueLen)
	for i := 0; i < n && err == nil; i++ {
		for d, v := len(key)-1, i; d > 0; d, v = d-1, v/10 {
			key[d] = byte('0' + v%10)
		}
		err = sink.w.WriteRecord(key, value)
	}
	records, rawBytes, err := sink.Close(err)
	if err != nil {
		tb.Fatal(err)
	}
	return SegmentInfo{File: name, Records: records, RawBytes: rawBytes}
}

// BenchmarkSegmentRoundTrip writes a 4 MB segment through the full sink
// stack (record framing, codec, checksum frames, MemFS) and streams it
// back. B/op against the 4 MB is what the storage path costs per byte.
func BenchmarkSegmentRoundTrip(b *testing.B) {
	job := identityReduceJob()
	fs := iokit.NewMemFS()
	const records, valueLen = 28000, 135 // the Sort workload's record shape
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seg := writeSortedSegment(b, job, fs, "seg", records, valueLen)
		b.SetBytes(seg.RawBytes)
		st, err := openSegment(job.Codec, fs, seg.File)
		if err != nil {
			b.Fatal(err)
		}
		if n, err := drainStreams(st); err != nil || n != records {
			b.Fatalf("read back %d records, %v", n, err)
		}
	}
}

// BenchmarkReduceCollect runs the reduce half of a task over one local
// segment of 100 k small records with the identity reducer, so nearly
// all it allocates is the collected output.
func BenchmarkReduceCollect(b *testing.B) {
	job := identityReduceJob()
	fs := iokit.NewMemFS()
	const records = 100000
	seg := writeSortedSegment(b, job, fs, "seg", records, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ExecReduceTask(context.Background(), job, fs, &Counters{}, 0, 0, []SegmentInfo{seg})
		if err != nil || len(out) != records {
			b.Fatalf("collected %d records, %v", len(out), err)
		}
	}
}
