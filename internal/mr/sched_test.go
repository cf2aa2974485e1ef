package mr

import (
	"strings"
	"testing"
	"time"

	"repro/internal/iokit"
	"repro/internal/sched"
)

// staggeredMapper sleeps an amount proportional to its task ID before
// emitting, so map tasks finish at deliberately different times.
type staggeredMapper struct {
	MapperBase
	info *TaskInfo
	unit time.Duration
}

func (m *staggeredMapper) Setup(info *TaskInfo, out Emitter) error {
	m.info = info
	return nil
}

func (m *staggeredMapper) Map(key, value []byte, out Emitter) error {
	time.Sleep(time.Duration(m.info.TaskID%4) * m.unit)
	for _, w := range strings.Fields(string(value)) {
		if err := out.Emit([]byte(w), []byte("1")); err != nil {
			return err
		}
	}
	return nil
}

// TestPipelinedShuffleOverlap proves the pipelining claim: with
// staggered map durations, shuffle fetches for early map tasks run
// while later map tasks are still executing — the event timeline shows
// a strictly positive map/fetch overlap, which a global map barrier
// makes impossible.
func TestPipelinedShuffleOverlap(t *testing.T) {
	job := wordCountJob(false)
	job.Parallelism = 4
	job.NewMapper = func() Mapper { return &staggeredMapper{unit: 20 * time.Millisecond} }
	input := lines("one two three", "two three four", "three four five", "four five six")
	res, err := Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	if ov := sched.Overlap(res.Timeline, TaskGroupMap, TaskGroupFetch); ov <= 0 {
		t.Errorf("map/fetch overlap = %v, want > 0 (fetches should start before the last map finishes)", ov)
	}
	mEnd, _, ok := lastFinish(res.Timeline, TaskGroupMap)
	fStart, _, ok2 := firstStart(res.Timeline, TaskGroupFetch)
	if !ok || !ok2 {
		t.Fatalf("timeline missing map or fetch attempts: %+v", res.Timeline)
	}
	if !fStart.Before(mEnd) {
		t.Errorf("earliest fetch started %v, after the latest map finished %v", fStart, mEnd)
	}
	if got := outputMap(t, res)["three"]; got != "3" {
		t.Errorf("three = %q, want 3", got)
	}
}

func lastFinish(tl []sched.Attempt, group string) (time.Time, string, bool) {
	var best time.Time
	var task string
	for _, a := range tl {
		if a.Group == group && a.Finished.After(best) {
			best, task = a.Finished, a.Task
		}
	}
	return best, task, !best.IsZero()
}

func firstStart(tl []sched.Attempt, group string) (time.Time, string, bool) {
	var best time.Time
	var task string
	for _, a := range tl {
		if a.Group == group && (best.IsZero() || a.Started.Before(best)) {
			best, task = a.Started, a.Task
		}
	}
	return best, task, !best.IsZero()
}

// TestRetryRecoversTransientFault is the acceptance scenario: a
// transient injected fault kills the job when it has a single attempt
// per task, while an attempt budget lets the scheduler retry the failed
// task and complete with correct output.
func TestRetryRecoversTransientFault(t *testing.T) {
	input := lines(strings.Repeat("retry recovers faults ", 300))
	want := outputMap(t, mustRun(t, jobForFaults(nil), input))

	mk := func(attempts int) *Job {
		job := jobForFaults(&iokit.FlakyFS{
			Inner:       iokit.NewMemFS(),
			FailWriteAt: 5, // hit an early spill write
			FailOnce:    true,
		})
		job.MaxTaskAttempts = attempts
		return job
	}

	if _, err := Run(mk(1), input); err == nil {
		t.Fatal("a single attempt should fail on the injected fault")
	}

	res, err := Run(mk(3), input)
	if err != nil {
		t.Fatalf("retries should recover: %v", err)
	}
	got := outputMap(t, res)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q = %q, want %q", k, got[k], v)
		}
	}
	var sawRetry bool
	for _, a := range res.Timeline {
		if a.Outcome == sched.OutcomeRetrying {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Error("timeline records no retrying attempt")
	}
}

func mustRun(t *testing.T, job *Job, splits []Split) *Result {
	t.Helper()
	res, err := Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTimelineShape: every map, fetch, and reduce task appears in the
// timeline with consistent metadata on a plain successful run.
func TestTimelineShape(t *testing.T) {
	job := wordCountJob(true)
	job.Parallelism = 2
	input := lines("a b", "b c", "c d")
	res := mustRun(t, job, input)
	counts := map[string]int{}
	for _, a := range res.Timeline {
		counts[a.Group]++
		if a.Outcome != sched.OutcomeSuccess {
			t.Errorf("attempt %s outcome = %s on a clean run", a.Task, a.Outcome)
		}
		if a.Started.Before(a.Queued) || a.Finished.Before(a.Started) {
			t.Errorf("attempt %s has unordered timestamps", a.Task)
		}
	}
	nMap, nRed := 3, job.NumReduceTasks
	if counts[TaskGroupMap] != nMap || counts[TaskGroupFetch] != nMap*nRed || counts[TaskGroupReduce] != nRed {
		t.Errorf("timeline groups = %v, want map=%d fetch=%d reduce=%d", counts, nMap, nMap*nRed, nRed)
	}
	if len(res.MapTaskTimes) != nMap {
		t.Fatalf("MapTaskTimes = %v", res.MapTaskTimes)
	}
	for i, d := range res.MapTaskTimes {
		if d < 0 {
			t.Errorf("MapTaskTimes[%d] = %v", i, d)
		}
	}
}

// TestPipelinedConcurrentCounters: under parallelism the metered
// counters must still sum exactly (race-free accounting).
func TestPipelinedConcurrentCounters(t *testing.T) {
	job := wordCountJob(true)
	job.Parallelism = 8
	job.SortBufferBytes = 1 << 10
	var splits []Split
	for i := 0; i < 8; i++ {
		splits = append(splits, &MemSplit{Recs: []Record{{Value: []byte(strings.Repeat("count me now ", 200))}}})
	}
	res := mustRun(t, job, splits)
	if res.Stats.MapInputRecords != 8 {
		t.Errorf("MapInputRecords = %d, want 8", res.Stats.MapInputRecords)
	}
	var perPart int64
	for _, f := range res.ShufflePerPartition {
		perPart += f
	}
	if perPart != res.Stats.ShuffleBytes {
		t.Errorf("per-partition flows sum %d != ShuffleBytes %d", perPart, res.Stats.ShuffleBytes)
	}
	if got := outputMap(t, res)["count"]; got != "1600" {
		t.Errorf("count = %q, want 1600", got)
	}
}
