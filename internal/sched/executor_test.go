package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExecutorRequired: a task without Run is a configuration error,
// caught before anything launches.
func TestExecutorRequired(t *testing.T) {
	_, err := Run(context.Background(), []Task{{Name: "t"}}, Config{})
	if err == nil {
		t.Fatal("expected configuration error")
	}
}

// TestDepLostReexecutes is the lost-map-output scenario: a producer
// commits, its consumer then discovers the output is gone and fails
// with DepLostError. The scheduler must un-commit the producer, run it
// again, and re-run the consumer — which succeeds on the second pass —
// without charging the consumer's retry budget.
func TestDepLostReexecutes(t *testing.T) {
	var produced, consumed atomic.Int64
	lost := int64(1) // first consumer attempt finds the output lost
	tasks := []Task{
		{Name: "producer", Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			return int(produced.Add(1)), nil
		}},
		{Name: "consumer", Deps: []string{"producer"}, Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			if consumed.Add(1) <= lost {
				return nil, &DepLostError{Deps: []string{"producer"}, Err: errors.New("segment unreachable")}
			}
			return tc.Dep("producer").(int) * 10, nil
		}},
	}
	rep, err := Run(context.Background(), tasks, Config{Workers: 2, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := produced.Load(); got != 2 {
		t.Errorf("producer ran %d times, want 2 (original + re-execution)", got)
	}
	if v := rep.Value("consumer"); v != 20 {
		t.Errorf("consumer value = %v, want 20 (10 × second producer run)", v)
	}
	var outcomes []Outcome
	for _, a := range rep.Attempts {
		outcomes = append(outcomes, a.Outcome)
	}
	found := false
	for _, o := range outcomes {
		if o == OutcomeDepLost {
			found = true
		}
	}
	if !found {
		t.Errorf("timeline %v missing %s outcome", outcomes, OutcomeDepLost)
	}
}

// TestDepLostFanout: two consumers lose the same producer output
// concurrently. The producer re-executes once (not once per waiter)
// and both consumers then commit.
func TestDepLostFanout(t *testing.T) {
	var produced atomic.Int64
	var mu sync.Mutex
	failedOnce := map[string]bool{}
	mkConsumer := func(name string) Task {
		return Task{Name: name, Deps: []string{"producer"}, Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			mu.Lock()
			first := !failedOnce[name]
			failedOnce[name] = true
			mu.Unlock()
			if first {
				return nil, &DepLostError{Deps: []string{"producer"}, Err: errors.New("gone")}
			}
			return tc.Dep("producer"), nil
		}}
	}
	tasks := []Task{
		{Name: "producer", Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			return produced.Add(1), nil
		}},
		mkConsumer("c1"),
		mkConsumer("c2"),
	}
	rep, err := Run(context.Background(), tasks, Config{Workers: 4, MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Both consumers could race their dep-lost reports: the producer
	// re-executes at least once and at most once per report.
	if got := produced.Load(); got < 2 || got > 3 {
		t.Errorf("producer ran %d times, want 2 or 3", got)
	}
	for _, name := range []string{"c1", "c2"} {
		if rep.Value(name) == nil {
			t.Errorf("%s did not commit", name)
		}
	}
}

// TestDepLostBudgetExhausted: a dependency whose output keeps
// vanishing fails the job once its re-execution budget is spent,
// instead of looping forever.
func TestDepLostBudgetExhausted(t *testing.T) {
	tasks := []Task{
		{Name: "producer", Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			return 1, nil
		}},
		{Name: "consumer", Deps: []string{"producer"}, Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			return nil, &DepLostError{Deps: []string{"producer"}, Err: errors.New("always gone")}
		}},
	}
	_, err := Run(context.Background(), tasks, Config{Workers: 2, MaxAttempts: 3})
	if err == nil {
		t.Fatal("expected failure after re-execution budget exhausted")
	}
	if want := "lost its output"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
}

// TestDepLostDoesNotChargeConsumerBudget: with MaxAttempts=2 the
// consumer survives two dep-lost rounds plus one genuine transient
// failure — dep-lost attempts must not consume its retry budget.
func TestDepLostDoesNotChargeConsumerBudget(t *testing.T) {
	var attempts atomic.Int64
	transient := errors.New("transient")
	tasks := []Task{
		{Name: "producer", Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			return 1, nil
		}},
		{Name: "consumer", Deps: []string{"producer"}, Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			switch attempts.Add(1) {
			case 1, 2:
				return nil, &DepLostError{Deps: []string{"producer"}, Err: errors.New("gone")}
			case 3:
				return nil, transient
			}
			return "ok", nil
		}},
	}
	rep, err := Run(context.Background(), tasks, Config{
		Workers: 2, MaxAttempts: 4,
		Retryable: func(err error) bool { return errors.Is(err, transient) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Value("consumer"); v != "ok" {
		t.Errorf("consumer value = %v", v)
	}
	if a := attempts.Load(); a != 4 {
		t.Errorf("consumer ran %d attempts, want 4", a)
	}
}

// TestDepLostChain: losing a mid-chain output re-executes it and
// re-runs only the reporting task, while the committed head of the
// chain is reused (its dependents are not structurally re-blocked).
func TestDepLostChain(t *testing.T) {
	var aRuns, bRuns atomic.Int64
	var cFailed atomic.Bool
	tasks := []Task{
		{Name: "a", Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			return aRuns.Add(1), nil
		}},
		{Name: "b", Deps: []string{"a"}, Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			return bRuns.Add(1), nil
		}},
		{Name: "c", Deps: []string{"b"}, Run: func(ctx context.Context, tc *TaskContext) (any, error) {
			if cFailed.CompareAndSwap(false, true) {
				return nil, &DepLostError{Deps: []string{"b"}, Err: errors.New("b's output gone")}
			}
			return fmt.Sprintf("a=%d b=%d", tc.Dep("a"), tc.Dep("b")), nil
		}},
	}
	rep, err := Run(context.Background(), tasks, Config{Workers: 2, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := aRuns.Load(); got != 1 {
		t.Errorf("a ran %d times, want 1 (not part of the lost chain)", got)
	}
	if got := bRuns.Load(); got != 2 {
		t.Errorf("b ran %d times, want 2", got)
	}
	if v := rep.Value("c"); v != "a=1 b=2" {
		t.Errorf("c value = %v", v)
	}
}
