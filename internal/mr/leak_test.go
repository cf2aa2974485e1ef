package mr

import (
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
			counters := &Counters{}
			_, err = mergeSegments(j, tracked, counters, "merged", 0, segs, false, 0, false)
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
