package mr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/iokit"
)

// TestMergeFaultCleanup drives a forced multi-pass merge into injected
// read and write faults at every byte-level op offset, and asserts a
// failed merge leaks nothing: no open file handles, no intermediate
// .pass files, no partial output — and the input segments stay intact
// (keep-inputs mode), so a retry could redo the merge.
func TestMergeFaultCleanup(t *testing.T) {
	// Build the input segments once on a pristine FS; each sweep round
	// copies them into a fresh flaky+tracked stack.
	for _, mode := range []string{"read", "write"} {
		for n := int64(1); ; n++ {
			mem := iokit.NewMemFS()
			flaky := &iokit.FlakyFS{Inner: mem}
			tracked := &iokit.TrackFS{Inner: flaky}
			job := wordCountJob(false)
			job.MergeFactor = 2
			j, err := job.normalized()
			if err != nil {
				t.Fatal(err)
			}
			segs := make([]SegmentInfo, 6)
			var inputs []string
			for i := range segs {
				name := fmt.Sprintf("in%02d", i)
				seg, err := writeTestSegment(j, mem, name, 0, i, 20+i)
				if err != nil {
					t.Fatal(err)
				}
				segs[i] = seg
				inputs = append(inputs, name)
			}
			if mode == "read" {
				flaky.FailReadAt = n
			} else {
				flaky.FailWriteAt = n
			}
			_, err = mergeKeepingInputs(j, tracked, "merged", segs)
			if err == nil {
				if n == 1 {
					t.Fatalf("%s sweep: fault at op 1 did not surface", mode)
				}
				break // fault offset beyond the merge's total ops: sweep done
			}
			if !errors.Is(err, iokit.ErrInjected) {
				t.Fatalf("%s@%d: error does not wrap injection: %v", mode, n, err)
			}
			if open := tracked.OpenHandles(); open != 0 {
				t.Fatalf("%s@%d: %d file handles left open after failed merge", mode, n, open)
			}
			files, lerr := mem.List()
			if lerr != nil {
				t.Fatal(lerr)
			}
			got := map[string]bool{}
			for _, f := range files {
				got[f] = true
				if strings.Contains(f, ".pass") {
					t.Fatalf("%s@%d: orphaned intermediate %s after failed merge", mode, n, f)
				}
				if f == "merged" {
					t.Fatalf("%s@%d: partial output file survived failed merge", mode, n)
				}
			}
			for _, in := range inputs {
				if !got[in] {
					t.Fatalf("%s@%d: keep-inputs merge lost input %s", mode, n, in)
				}
			}
		}
	}
}

// mergeKeepingInputs merges segs of partition 0 into one segment the
// way a reduce with retries does — passes that keep their inputs, then
// one last merge — and removes the pass files, also on error.
func mergeKeepingInputs(j *Job, fs iokit.FS, name string, segs []SegmentInfo) (SegmentInfo, error) {
	segs, passes, err := mergePasses(j, fs, name, 0, segs, false)
	defer removeAll(fs, passes)
	if err != nil {
		return SegmentInfo{}, err
	}
	return mergeOnce(j, fs, name, 0, segs, nil, false)
}

// TestRunFaultHandleLeaks sweeps injected faults across whole runs —
// spills, map-side merges, shuffle reads, reduce merges — and asserts
// that no run, failed or successful, finishes with file handles open.
func TestRunFaultHandleLeaks(t *testing.T) {
	input := lines(
		strings.Repeat("fault injection words ", 150),
		strings.Repeat("leak hunting sweep ", 150),
	)
	for _, mode := range []string{"read", "write"} {
		for n := int64(1); n <= 150; n += 5 {
			flaky := &iokit.FlakyFS{Inner: iokit.NewMemFS()}
			if mode == "read" {
				flaky.FailReadAt = n
			} else {
				flaky.FailWriteAt = n
			}
			tracked := &iokit.TrackFS{Inner: flaky}
			job := wordCountJob(true)
			job.FS = tracked
			job.SortBufferBytes = 2 << 10
			job.MergeFactor = 2
			job.Parallelism = 1
			_, err := Run(job, input)
			if err != nil && !errors.Is(err, iokit.ErrInjected) {
				t.Fatalf("%s@%d: error does not wrap injection: %v", mode, n, err)
			}
			if open := tracked.OpenHandles(); open != 0 {
				t.Fatalf("%s@%d: %d file handles open after Run (err=%v)", mode, n, open, err)
			}
		}
	}
}

// TestReduceMergePassCleanup runs a reduce whose inputs outnumber the
// merge factor, so it merges some of them in passes before it streams
// the rest into Reduce: once with no fault, and then with a read or a
// write fault injected at every op offset — every write of the reduce
// is a pass's. Whether the attempt succeeds or fails, no .pass file and
// no open handle may survive it, and its inputs stay intact for a
// retry.
func TestReduceMergePassCleanup(t *testing.T) {
	for _, mode := range []string{"none", "read", "write"} {
		for n := int64(1); ; n++ {
			mem := iokit.NewMemFS()
			flaky := &iokit.FlakyFS{Inner: mem}
			tracked := &iokit.TrackFS{Inner: flaky}
			job := wordCountJob(false)
			job.NewReducer = NewReduceFunc(func(key []byte, values ValueIter, out Emitter) error {
				for v, ok := values.Next(); ok; v, ok = values.Next() {
					if err := out.Emit(key, v); err != nil {
						return err
					}
				}
				return nil
			})
			job.MergeFactor = 2
			job.MaxTaskAttempts = 2
			j, err := job.normalized()
			if err != nil {
				t.Fatal(err)
			}
			segs := make([]SegmentInfo, 6)
			for i := range segs {
				if segs[i], err = writeTestSegment(j, mem, fmt.Sprintf("in%02d", i), 0, i, 20+i); err != nil {
					t.Fatal(err)
				}
			}
			switch mode {
			case "read":
				flaky.FailReadAt = n
			case "write":
				flaky.FailWriteAt = n
			}
			out, err := ExecReduceTask(context.Background(), j, tracked, &Counters{}, 0, 1, segs)
			if err != nil && !errors.Is(err, iokit.ErrInjected) {
				t.Fatalf("%s@%d: error does not wrap injection: %v", mode, n, err)
			}
			if want := 6*20 + 15; err == nil && len(out) != want {
				t.Fatalf("%s@%d: reduce emitted %d records, want %d", mode, n, len(out), want)
			}
			if open := tracked.OpenHandles(); open != 0 {
				t.Fatalf("%s@%d: %d file handles left open (err=%v)", mode, n, open, err)
			}
			files, lerr := mem.List()
			if lerr != nil {
				t.Fatal(lerr)
			}
			for _, f := range files {
				if strings.Contains(f, ".pass") {
					t.Fatalf("%s@%d: pass file %s survived the reduce (err=%v)", mode, n, f, err)
				}
			}
			if len(files) != len(segs) {
				t.Fatalf("%s@%d: %d files survive, want the %d inputs: %v", mode, n, len(files), len(segs), files)
			}
			if err == nil {
				if mode != "none" && n == 1 {
					t.Fatalf("%s sweep: fault at op 1 did not surface", mode)
				}
				break // no fault, or its offset is past the reduce's last op
			}
		}
	}
}
