package mr

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/iokit"
)

// TestOutputRecordsDoNotAlias: output keys and values share arena
// chunks, so each must be clipped to its own bytes — appending to one
// reallocates it instead of overwriting what follows — and must outlive
// the job's filesystem.
func TestOutputRecordsDoNotAlias(t *testing.T) {
	job := wordCountJob(false)
	job.NumReduceTasks = 2
	job.FS = iokit.NewMemFS()
	res, err := Run(job, lines(
		strings.Repeat("alpha beta gamma delta epsilon zeta eta theta iota kappa ", 40),
		strings.Repeat("lambda mu nu xi omicron pi rho sigma tau upsilon ", 30)))
	if err != nil {
		t.Fatal(err)
	}
	job.FS = nil
	runtime.GC()

	total := 0
	for p, part := range res.Output {
		want := make([]Record, len(part))
		for i, r := range part {
			want[i] = Record{Key: bytes.Clone(r.Key), Value: bytes.Clone(r.Value)}
		}
		for i := range part {
			if cap(part[i].Key) != len(part[i].Key) || cap(part[i].Value) != len(part[i].Value) {
				t.Fatalf("partition %d record %d: key cap %d len %d, value cap %d len %d",
					p, i, cap(part[i].Key), len(part[i].Key), cap(part[i].Value), len(part[i].Value))
			}
			grownKey := append(part[i].Key, "XXXXXXXXXXXXXXXX"...)
			grownValue := append(part[i].Value, "YYYYYYYYYYYYYYYY"...)
			if !bytes.HasPrefix(grownKey, want[i].Key) || !bytes.HasPrefix(grownValue, want[i].Value) {
				t.Fatalf("partition %d record %d: append lost the original bytes", p, i)
			}
		}
		for i, r := range part {
			if !bytes.Equal(r.Key, want[i].Key) || !bytes.Equal(r.Value, want[i].Value) {
				t.Errorf("partition %d record %d is %q=%q after appending to its neighbours, was %q=%q",
					p, i, r.Key, r.Value, want[i].Key, want[i].Value)
			}
		}
		total += len(part)
	}
	if total != 20 {
		t.Errorf("%d output records, want 20", total)
	}
}

// TestOutputArenaShapes covers what the word-count job above does not:
// empty keys and values (non-nil, as Clone returned them), records
// larger than a chunk, and more records than one run holds.
func TestOutputArenaShapes(t *testing.T) {
	var a outputArena
	if a.records() != nil {
		t.Error("an empty arena should collect to nil")
	}
	big := bytes.Repeat([]byte("B"), outputChunkMax+1)
	var want []Record
	for i := 0; i < 3*outputRunMax+5; i++ {
		r := Record{Key: []byte{byte(i), byte(i >> 8)}, Value: bytes.Repeat([]byte{byte(i)}, i%7)}
		switch i {
		case 0:
			r = Record{Key: nil, Value: nil}
		case 100, 5000:
			r.Value = big
		}
		want = append(want, r)
		a.add(r.Key, r.Value)
	}
	got := a.records()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("record %d differs", i)
		}
		if got[i].Key == nil || got[i].Value == nil {
			t.Fatalf("record %d has a nil key or value", i)
		}
	}
}

// mallocs reports the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReduceCollectAllocations: collecting output costs an allocation
// per arena chunk and per run of record headers, not two per record.
func TestReduceCollectAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	job := identityReduceJob()
	fs := iokit.NewMemFS()
	const records = 100000
	seg := writeSortedSegment(t, job, fs, "seg", records, 4)
	var out []Record
	var err error
	n := mallocs(func() {
		out, err = ExecReduceTask(context.Background(), job, fs, &Counters{}, 0, 0, []SegmentInfo{seg})
	})
	if err != nil || len(out) != records {
		t.Fatalf("collected %d records, %v", len(out), err)
	}
	if n > records/64 {
		t.Errorf("reduce over %d records made %d allocations, want at most one per 64 records", records, n)
	}
}

// TestMapArenasStayWithTheRun: a run hands its sort arenas from one map
// task to the next itself, so garbage collections between tasks — two
// empty a sync.Pool — do not make later tasks grow new ones. Eight
// tasks on two workers grow two arenas, three at most; with only the
// cross-run pools to go through (no run, as for a task executed outside
// one) they grow eight. That reference runs on one worker: on two, a
// task could put its arena into the pool just after its sibling's
// collections and the sibling's next task take it, so how many it grew
// depended on timing. Every hand-over is through a poisoned put.
func TestMapArenasStayWithTheRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	const (
		tasks     = 8
		workers   = 2
		perTask   = 1000
		valueLen  = 4000    // 4 MB per task: one spill, into a 4 MiB sort buffer
		arenaCost = 8 << 20 // doubling up to 4 MiB allocates 8 MiB on the way
	)
	value := make([]byte, valueLen)
	split := &MemSplit{Recs: make([]Record, perTask)}
	for r := range split.Recs {
		split.Recs[r] = Record{Key: []byte{byte(r >> 8), byte(r)}, Value: value}
	}
	run := func(bufs *runBuffers, workers int) uint64 {
		job := identityReduceJob()
		job.bufs = bufs
		fs := iokit.NewMemFS()
		runtime.GC() // start both runs from empty cross-run pools
		runtime.GC()
		return allocatedBytes(func() {
			err := runPool(context.Background(), workers, tasks, func(ctx context.Context, i int) error {
				_, err := ExecMapTask(ctx, job, fs, &Counters{}, i, 0, split)
				runtime.GC()
				runtime.GC()
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	poolOnly, owned := run(outsideRun, 1), run(newRunBuffers(workers), workers) // the latter is what Run does
	// Both runs store the same files; the arenas are the difference.
	if saved := int64(poolOnly) - int64(owned); saved < (tasks-3)*arenaCost*9/10 {
		t.Errorf("run-owned buffers allocated %d MB, sync.Pool alone %d MB: reuse saved %d MB, want about %d (%d of %d arenas)",
			owned>>20, poolOnly>>20, saved>>20, (tasks-3)*arenaCost>>20, tasks-3, tasks)
	}
}
