package mr

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/iokit"
)

// TestFaultInjectionSurfacesErrors sweeps injected I/O failures across
// the whole pipeline — spill writes, merge reads, shuffle reads — and
// requires every run to either succeed (failure point beyond the job's
// I/O) or return an error wrapping the injected one. Never a panic,
// never a silently wrong result.
func TestFaultInjectionSurfacesErrors(t *testing.T) {
	input := lines(strings.Repeat("fault injection words ", 300))
	baseline, err := Run(jobForFaults(nil), input)
	if err != nil {
		t.Fatal(err)
	}
	want := outputMap(t, baseline)

	for _, mode := range []string{"write", "read"} {
		for n := int64(1); n <= 200; n += 7 {
			flaky := &iokit.FlakyFS{Inner: iokit.NewMemFS()}
			if mode == "write" {
				flaky.FailWriteAt = n
			} else {
				flaky.FailReadAt = n
			}
			res, err := Run(jobForFaults(flaky), input)
			if err != nil {
				if !errors.Is(err, iokit.ErrInjected) {
					t.Fatalf("%s@%d: error does not wrap injection: %v", mode, n, err)
				}
				continue
			}
			got := outputMap(t, res)
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("%s@%d: silent corruption: %q=%q want %q", mode, n, k, got[k], v)
				}
			}
		}
	}
}

// TestFaultInjectionParallelPipelined repeats the sweep under the
// pipelined scheduler with four workers and a retry budget: persistent
// faults must still surface as errors wrapping the injection (retries
// re-fail and exhaust the budget) or the run must succeed with correct
// output — never a panic, deadlock, or silent corruption, even with
// concurrent attempts in flight.
func TestFaultInjectionParallelPipelined(t *testing.T) {
	input := lines(
		strings.Repeat("fault injection words ", 150),
		strings.Repeat("parallel pipelined faults ", 150),
		strings.Repeat("injection sweep again ", 150),
		strings.Repeat("words words words ", 150),
	)
	mk := func(fs iokit.FS) *Job {
		job := jobForFaults(fs)
		job.Parallelism = 4
		job.MaxTaskAttempts = 3
		return job
	}
	baseline, err := Run(mk(nil), input)
	if err != nil {
		t.Fatal(err)
	}
	want := outputMap(t, baseline)

	for _, mode := range []string{"write", "read"} {
		for n := int64(1); n <= 200; n += 13 {
			flaky := &iokit.FlakyFS{Inner: iokit.NewMemFS()}
			if mode == "write" {
				flaky.FailWriteAt = n
			} else {
				flaky.FailReadAt = n
			}
			res, err := Run(mk(flaky), input)
			if err != nil {
				if !errors.Is(err, iokit.ErrInjected) {
					t.Fatalf("%s@%d: error does not wrap injection: %v", mode, n, err)
				}
				continue
			}
			got := outputMap(t, res)
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("%s@%d: silent corruption: %q=%q want %q", mode, n, k, got[k], v)
				}
			}
		}
	}
}

// TestFaultInjectionTransientSweep: with FailOnce faults every run must
// succeed under a retry budget — a single glitch is always recoverable
// regardless of where in the pipeline it lands.
func TestFaultInjectionTransientSweep(t *testing.T) {
	input := lines(strings.Repeat("transient sweep words ", 200))
	baseline, err := Run(jobForFaults(nil), input)
	if err != nil {
		t.Fatal(err)
	}
	want := outputMap(t, baseline)

	for _, mode := range []string{"write", "read"} {
		for n := int64(1); n <= 120; n += 11 {
			flaky := &iokit.FlakyFS{Inner: iokit.NewMemFS(), FailOnce: true}
			if mode == "write" {
				flaky.FailWriteAt = n
			} else {
				flaky.FailReadAt = n
			}
			job := jobForFaults(flaky)
			job.MaxTaskAttempts = 3
			res, err := Run(job, input)
			if err != nil {
				t.Fatalf("%s@%d: transient fault not recovered: %v", mode, n, err)
			}
			got := outputMap(t, res)
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("%s@%d: silent corruption after retry: %q=%q want %q", mode, n, k, got[k], v)
				}
			}
		}
	}
}

func jobForFaults(fs iokit.FS) *Job {
	job := wordCountJob(true)
	job.SortBufferBytes = 2 << 10 // force spills and merges
	job.Parallelism = 1
	if fs != nil {
		job.FS = fs
	}
	return job
}
