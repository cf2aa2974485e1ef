package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDAGOrdering: every task runs exactly once, and no task starts
// before all of its dependencies committed their values.
func TestDAGOrdering(t *testing.T) {
	var mu sync.Mutex
	finished := make(map[string]bool)
	mk := func(name string, deps ...string) Task {
		return Task{
			Name: name, Deps: deps,
			Run: func(ctx context.Context, tc *TaskContext) (any, error) {
				mu.Lock()
				for _, d := range deps {
					if !finished[d] {
						mu.Unlock()
						return nil, fmt.Errorf("task %s ran before dep %s", name, d)
					}
				}
				mu.Unlock()
				for _, d := range deps {
					if got := tc.Dep(d); got != "v:"+d {
						return nil, fmt.Errorf("task %s saw dep %s = %v", name, d, got)
					}
				}
				mu.Lock()
				finished[name] = true
				mu.Unlock()
				return "v:" + name, nil
			},
		}
	}
	// Diamond plus a long chain.
	tasks := []Task{
		mk("a"),
		mk("b", "a"),
		mk("c", "a"),
		mk("d", "b", "c"),
		mk("e", "d"),
		mk("f"),
	}
	rep, err := Run(context.Background(), tasks, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attempts) != len(tasks) {
		t.Errorf("attempts = %d, want %d", len(rep.Attempts), len(tasks))
	}
	for _, task := range tasks {
		if rep.Value(task.Name) != "v:"+task.Name {
			t.Errorf("value(%s) = %v", task.Name, rep.Value(task.Name))
		}
	}
	for _, a := range rep.Attempts {
		if a.Outcome != OutcomeSuccess {
			t.Errorf("attempt %s outcome = %s", a.Task, a.Outcome)
		}
	}
}

// TestValidation rejects malformed graphs up front.
func TestValidation(t *testing.T) {
	run := func(ts []Task) error {
		_, err := Run(context.Background(), ts, Config{})
		return err
	}
	noop := func(ctx context.Context, tc *TaskContext) (any, error) { return nil, nil }
	if err := run([]Task{{Name: "x", Run: noop}, {Name: "x", Run: noop}}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate name: %v", err)
	}
	if err := run([]Task{{Name: "x", Deps: []string{"ghost"}, Run: noop}}); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown dep: %v", err)
	}
	if err := run([]Task{
		{Name: "x", Deps: []string{"y"}, Run: noop},
		{Name: "y", Deps: []string{"x"}, Run: noop},
	}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle: %v", err)
	}
	if err := run([]Task{{Name: "", Run: noop}}); err == nil {
		t.Error("empty name accepted")
	}
	if err := run([]Task{{Name: "x"}}); err == nil {
		t.Error("nil Run accepted")
	}
}

// TestRetryRecovers: a task failing transiently succeeds within its
// attempt budget, and the timeline records the retry.
func TestRetryRecovers(t *testing.T) {
	var calls atomic.Int64
	transient := errors.New("transient")
	tasks := []Task{{
		Name: "flaky", Group: "g",
		Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			if calls.Add(1) <= 2 {
				return nil, fmt.Errorf("glitch %d: %w", tc.Attempt, transient)
			}
			return "ok", nil
		},
	}}
	rep, err := Run(context.Background(), tasks, Config{
		Workers: 2, MaxAttempts: 3,
		Retryable: func(err error) bool { return errors.Is(err, transient) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Value("flaky") != "ok" {
		t.Errorf("value = %v", rep.Value("flaky"))
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
	var outcomes []Outcome
	for _, a := range rep.Attempts {
		outcomes = append(outcomes, a.Outcome)
	}
	want := []Outcome{OutcomeRetrying, OutcomeRetrying, OutcomeSuccess}
	if fmt.Sprint(outcomes) != fmt.Sprint(want) {
		t.Errorf("outcomes = %v, want %v", outcomes, want)
	}
}

// TestRetryBudgetExhausted: a persistently failing task surfaces the
// underlying error (wrapped) once attempts run out.
func TestRetryBudgetExhausted(t *testing.T) {
	transient := errors.New("transient")
	var calls atomic.Int64
	tasks := []Task{{
		Name: "doomed",
		Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			calls.Add(1)
			return nil, transient
		},
	}}
	_, err := Run(context.Background(), tasks, Config{
		MaxAttempts: 3,
		Retryable:   func(err error) bool { return errors.Is(err, transient) },
	})
	if !errors.Is(err, transient) {
		t.Fatalf("err = %v, want wrapped transient", err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}
}

// TestNonRetryableFailsFast: without a Retryable match the first
// failure is fatal and downstream tasks never run.
func TestNonRetryableFailsFast(t *testing.T) {
	boom := errors.New("boom")
	var downstream atomic.Bool
	tasks := []Task{
		{Name: "bad", Run: func(ctx context.Context, tc *TaskContext) (any, error) { return nil, boom }},
		{Name: "after", Deps: []string{"bad"}, Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			downstream.Store(true)
			return nil, nil
		}},
	}
	_, err := Run(context.Background(), tasks, Config{MaxAttempts: 5})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if downstream.Load() {
		t.Error("dependent of failed task ran")
	}
}

// TestFailureCancelsInFlight: a fatal failure cancels the contexts of
// concurrently running sibling attempts before Run returns.
func TestFailureCancelsInFlight(t *testing.T) {
	boom := errors.New("boom")
	running := make(chan struct{})
	var sawCancel atomic.Bool
	tasks := []Task{
		{Name: "slow", Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			close(running)
			select {
			case <-ctx.Done():
				sawCancel.Store(true)
			case <-time.After(5 * time.Second):
			}
			return nil, ctx.Err()
		}},
		{Name: "bad", Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			<-running
			return nil, boom
		}},
	}
	_, err := Run(context.Background(), tasks, Config{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !sawCancel.Load() {
		t.Error("in-flight sibling not cancelled")
	}
}

// TestExternalCancellation: cancelling the caller's context aborts the
// run.
func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tasks := []Task{{
		Name: "waits",
		Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			cancel()
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}}
	_, err := Run(ctx, tasks, Config{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestAttemptsNeverOverlap: a task has at most one attempt in flight.
// Under transient retries, DepLostError re-execution and external
// cancellation, no two attempts of one task overlap in [Started,
// Finished], on the timeline and on the trace alike, and Run returns
// only once every attempt has.
func TestAttemptsNeverOverlap(t *testing.T) {
	var mu sync.Mutex
	inFlight := map[string]int{}
	var overlaps atomic.Int64
	// enter marks an attempt of name running for a millisecond, long
	// enough that a second concurrent attempt would be caught in it.
	enter := func(ctx context.Context, name string) {
		mu.Lock()
		if inFlight[name]++; inFlight[name] > 1 {
			overlaps.Add(1)
		}
		mu.Unlock()
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		mu.Lock()
		inFlight[name]--
		mu.Unlock()
	}
	assertSerial := func(t *testing.T, what string, spans []obs.Span) {
		t.Helper()
		byTask := map[string][]obs.Span{}
		for _, sp := range spans {
			byTask[sp.Name] = append(byTask[sp.Name], sp)
		}
		for name, sps := range byTask {
			sort.Slice(sps, func(i, j int) bool { return sps[i].Start.Before(sps[j].Start) })
			for i := 1; i < len(sps); i++ {
				if sps[i].Start.Before(sps[i-1].End) {
					t.Errorf("%s: %s attempts %s and %s overlap: [%v, %v] and [%v, %v]", what, name,
						sps[i-1].Attr("attempt"), sps[i].Attr("attempt"),
						sps[i-1].Start, sps[i-1].End, sps[i].Start, sps[i].End)
				}
			}
		}
		if n := overlaps.Load(); n != 0 {
			t.Errorf("%s: %d attempts started while another attempt of their task ran", what, n)
		}
	}

	t.Run("retries and re-execution", func(t *testing.T) {
		transient := errors.New("transient")
		var flaky, consumed atomic.Int64
		tasks := []Task{
			{Name: "flaky", Group: "g", Run: func(ctx context.Context, tc *TaskContext) (any, error) {
				enter(ctx, "flaky")
				if flaky.Add(1) <= 2 {
					return nil, transient
				}
				return "ok", nil
			}},
			{Name: "producer", Group: "g", Run: func(ctx context.Context, tc *TaskContext) (any, error) {
				enter(ctx, "producer")
				return tc.Attempt, nil
			}},
			{Name: "consumer", Group: "g", Deps: []string{"producer", "flaky"}, Run: func(ctx context.Context, tc *TaskContext) (any, error) {
				enter(ctx, "consumer")
				switch consumed.Add(1) {
				case 1, 2:
					return nil, &DepLostError{Deps: []string{"producer"}, Err: errors.New("gone")}
				case 3:
					return nil, transient
				}
				return tc.Dep("producer"), nil
			}},
		}
		rep, err := Run(context.Background(), tasks, Config{
			Workers: 4, MaxAttempts: 4,
			Retryable: func(err error) bool { return errors.Is(err, transient) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := rep.Value("consumer"); v != 2 {
			t.Errorf("consumer value = %v, want the producer's third attempt (2)", v)
		}
		var spans []obs.Span
		for _, a := range rep.Attempts {
			spans = append(spans, obs.Span{Name: a.Task, Start: a.Started, End: a.Finished,
				Attrs: []obs.Attr{obs.Int("attempt", int64(a.Attempt))}})
		}
		if len(spans) != 3+3+4 {
			t.Errorf("%d attempts, want 3 flaky + 3 producer + 4 consumer", len(spans))
		}
		assertSerial(t, "timeline", spans)
	})

	t.Run("external cancellation", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tracer := obs.NewTracer()
		var attempts atomic.Int64
		var running atomic.Int64
		tasks := []Task{{Name: "doomed", Group: "g", Run: func(actx context.Context, tc *TaskContext) (any, error) {
			running.Add(1)
			defer running.Add(-1)
			enter(actx, "doomed")
			if attempts.Add(1) == 3 {
				cancel()
				<-actx.Done()
				return nil, actx.Err()
			}
			return nil, errors.New("transient")
		}}}
		_, err := Run(ctx, tasks, Config{
			Workers: 4, MaxAttempts: 10, Tracer: tracer,
			Retryable: func(err error) bool { return !errors.Is(err, context.Canceled) },
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := running.Load(); n != 0 {
			t.Errorf("Run returned with %d attempts still running", n)
		}
		if got := len(tracer.Spans()); got != 3 {
			t.Errorf("%d attempt spans, want 3", got)
		}
		assertSerial(t, "trace", tracer.Spans())
	})
}

// TestTimelineTimestamps: attempts carry ordered queued/start/finish
// times and dependencies never start before their dep finished.
func TestTimelineTimestamps(t *testing.T) {
	tasks := []Task{
		{Name: "first", Group: "a", Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			time.Sleep(2 * time.Millisecond)
			return nil, nil
		}},
		{Name: "second", Group: "b", Deps: []string{"first"}, Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			return nil, nil
		}},
	}
	rep, err := Run(context.Background(), tasks, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Attempt)
	for _, a := range rep.Attempts {
		if a.Queued.After(a.Started) || a.Started.After(a.Finished) {
			t.Errorf("attempt %s has unordered timestamps: %+v", a.Task, a)
		}
		byName[a.Task] = a
	}
	if byName["second"].Started.Before(byName["first"].Finished) {
		t.Error("dependent started before dependency finished")
	}
	if d := rep.TaskDuration("first"); d <= 0 {
		t.Errorf("TaskDuration(first) = %v", d)
	}
	aStart, aEnd, ok := Span(rep.Attempts, "a")
	if !ok || !aEnd.After(aStart) {
		t.Errorf("Span(a) = %v..%v ok=%v", aStart, aEnd, ok)
	}
	if _, _, ok := Span(rep.Attempts, "missing"); ok {
		t.Error("Span of missing group reported ok")
	}
}

// TestOverlap: synthetic timelines produce the expected intersection.
func TestOverlap(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(s, e int) (time.Time, time.Time) {
		return base.Add(time.Duration(s) * time.Second), base.Add(time.Duration(e) * time.Second)
	}
	mk := func(group string, s, e int) Attempt {
		st, en := at(s, e)
		return Attempt{Task: group + "/x", Group: group, Started: st, Finished: en}
	}
	tl := []Attempt{mk("map", 0, 10), mk("fetch", 6, 12), mk("reduce", 12, 20)}
	if got := Overlap(tl, "map", "fetch"); got != 4*time.Second {
		t.Errorf("Overlap(map,fetch) = %v, want 4s", got)
	}
	if got := Overlap(tl, "map", "reduce"); got != 0 {
		t.Errorf("Overlap(map,reduce) = %v, want 0", got)
	}
	if got := Overlap(tl, "map", "missing"); got != 0 {
		t.Errorf("Overlap with missing group = %v, want 0", got)
	}
}

// TestWorkerBound: no more than Workers attempts execute at once.
func TestWorkerBound(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var tasks []Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, Task{
			Name: fmt.Sprintf("t%d", i),
			Run: func(ctx context.Context, tc *TaskContext) (any, error) {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
				return nil, nil
			},
		})
	}
	if _, err := Run(context.Background(), tasks, Config{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}
