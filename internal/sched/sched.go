// Package sched is an event-driven DAG task scheduler: tasks declare
// dependencies, a bounded worker pool executes attempts, and a single
// coordinator goroutine reacts to completion events — dispatching each
// task the moment its last dependency commits instead of waiting for a
// phase barrier. It adds what a barrier loop cannot express:
//
//   - retry with exponential backoff for attempts that fail with an
//     error the caller classifies as transient;
//   - re-execution of a committed task whose output a consumer reports
//     lost (DepLostError);
//   - prompt job-wide cancellation on fatal failure, plumbed to every
//     in-flight attempt via context.Context;
//   - a structured per-attempt timeline (queued/start/finish, outcome)
//     so consumers can measure real phase overlap instead of assuming
//     serialization.
//
// The mr engine uses it to pipeline shuffle fetches against
// still-running map tasks, but the package knows nothing about
// MapReduce: tasks are opaque closures returning opaque values.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Task is one node of the DAG. Run is invoked once per attempt, and at
// most one attempt of a task is in flight at a time; it must honor ctx
// cancellation promptly (a sibling of a failed task is cancelled, not
// killed). The value of the attempt that succeeds is committed and is
// visible to dependent tasks via TaskContext.Dep.
type Task struct {
	// Name uniquely identifies the task and keys Dep lookups.
	Name string
	// Group labels the task for timeline analysis (e.g. "map", "fetch",
	// "reduce").
	Group string
	// Deps lists task names that must commit before this task runs.
	Deps []string
	// Run executes one attempt. Run may be nil when Config.Executor is
	// set; such tasks are dispatched to the executor instead.
	Run func(ctx context.Context, tc *TaskContext) (any, error)
}

// Executor dispatches task attempts somewhere other than an in-process
// closure — the cluster coordinator implements it to lease tasks to
// remote worker processes. Execute is invoked under the same worker
// semaphore and retry machinery as Task.Run; it must
// honor ctx cancellation (the lease should be revoked) and may return
// a *DepLostError to signal that an already-committed dependency's
// output has become unreachable and must be re-executed.
type Executor interface {
	Execute(ctx context.Context, task *Task, tc *TaskContext) (any, error)
}

// DepLostError reports that a task attempt could not run because the
// committed output of one or more dependencies no longer exists — in a
// cluster, a map task's segments died with their worker. The scheduler
// reacts by un-committing the named dependencies, re-executing them,
// and re-running the reporting task once they commit again, rather than
// charging the failure to the reporting task's retry budget.
type DepLostError struct {
	// Deps names the dependencies whose outputs were lost.
	Deps []string
	// Err is the underlying fault, e.g. the fetch error.
	Err error
}

func (e *DepLostError) Error() string {
	return fmt.Sprintf("sched: lost output of dependencies %v: %v", e.Deps, e.Err)
}

func (e *DepLostError) Unwrap() error { return e.Err }

// lostDeps extracts the lost dependency names from err, or nil.
func lostDeps(err error) []string {
	var dl *DepLostError
	if errors.As(err, &dl) {
		return dl.Deps
	}
	return nil
}

// TaskContext carries per-attempt information into Run.
type TaskContext struct {
	// Attempt is the 0-based attempt index, unique per task across
	// retries and re-executions (use it to scope file names).
	Attempt int

	s *scheduler
}

// Dep returns the committed value of a completed dependency. It must
// only be called with names listed in the task's Deps.
func (tc *TaskContext) Dep(name string) any { return tc.s.value(name) }

// Config tunes a scheduler run. The zero value is usable: GOMAXPROCS
// workers, no retries.
type Config struct {
	// Workers bounds concurrently executing attempts.
	Workers int
	// MaxAttempts caps sequential attempts per task (1 = no retries).
	MaxAttempts int
	// Retryable classifies errors worth retrying; nil disables retries
	// regardless of MaxAttempts.
	Retryable func(error) bool
	// MaxReexecs caps how many times a finished task may be re-executed
	// because a consumer reported its output lost (DepLostError).
	// Defaults to MaxAttempts, but callers whose tasks hold volatile
	// outputs (stage handoffs on remote workers) may raise it
	// independently of the retry budget.
	MaxReexecs int
	// Tracer, when non-nil, receives one span per attempt (kind = the
	// task's Group, name = the task name) with attempt index and
	// outcome attributes — the trace-sink
	// generalization of the Attempts timeline.
	Tracer *obs.Tracer
	// Executor, when non-nil, runs attempts of tasks whose Run is nil.
	// Tasks with a Run closure keep using it, so in-process and
	// executor-dispatched tasks can share one DAG.
	Executor Executor
}

const (
	// retryDelay is the delay before a task's first retry; it doubles
	// per subsequent failure up to maxRetryDelay.
	retryDelay    = time.Millisecond
	maxRetryDelay = 250 * time.Millisecond
)

func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
	}
	if c.MaxReexecs <= 0 {
		c.MaxReexecs = c.MaxAttempts
	}
	return c
}

// Report is the outcome of a successful Run.
type Report struct {
	// Attempts is the full per-attempt timeline in completion order.
	Attempts []Attempt

	values    map[string]any
	durations map[string]time.Duration
}

// Value returns the committed value of a task by name.
func (r *Report) Value(name string) any { return r.values[name] }

// TaskDuration returns the committed attempt's Run duration for a task.
func (r *Report) TaskDuration(name string) time.Duration { return r.durations[name] }

type node struct {
	task       Task
	waiting    int // unmet dependencies
	dependents []*node

	done         bool
	failures     int  // attempts that genuinely failed (not cancelled/lost)
	attempts     int  // attempts launched (numbers the next attempt)
	running      bool // an attempt is in flight
	retryPending bool
	cancel       context.CancelFunc // the in-flight attempt's
	winDur       time.Duration

	// Dependency re-execution state. everCommitted guards the one-time
	// structural unblocking of dependents; a re-commit after output loss
	// must not decrement their waiting counts again. reexecs counts
	// resets of this node (capped by MaxAttempts). waiters are nodes
	// whose attempt failed with a DepLostError naming this node; they
	// relaunch when it re-commits. redoWait is the count of lost deps a
	// waiter is still waiting on.
	everCommitted bool
	reexecs       int
	waiters       []*node
	redoWait      int
}

type completion struct {
	n        *node
	attempt  int
	value    any
	err      error
	queued   time.Time
	started  time.Time
	finished time.Time
}

type scheduler struct {
	cfg   Config
	nodes map[string]*node
	order []*node

	sem     chan struct{}
	events  chan completion
	retries chan *node

	mu     sync.RWMutex
	values map[string]any

	attemptsLog []Attempt
}

func (s *scheduler) value(name string) any {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.values[name]
}

func (s *scheduler) commit(name string, v any) {
	s.mu.Lock()
	s.values[name] = v
	s.mu.Unlock()
}

// Run executes the task DAG and blocks until every task committed or
// one failed fatally (non-retryable error or retry budget exhausted).
// On failure the first fatal error is returned, every in-flight attempt
// is cancelled, and Run waits for them to drain before returning.
func Run(ctx context.Context, tasks []Task, cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	s, err := newScheduler(tasks, cfg)
	if err != nil {
		return nil, err
	}
	return s.run(ctx)
}

func newScheduler(tasks []Task, cfg Config) (*scheduler, error) {
	s := &scheduler{
		cfg:     cfg,
		nodes:   make(map[string]*node, len(tasks)),
		sem:     make(chan struct{}, cfg.Workers),
		events:  make(chan completion),
		retries: make(chan *node),
		values:  make(map[string]any, len(tasks)),
	}
	for _, t := range tasks {
		if t.Name == "" {
			return nil, fmt.Errorf("sched: task with empty name")
		}
		if t.Run == nil && cfg.Executor == nil {
			return nil, fmt.Errorf("sched: task %s has no Run and no Executor is configured", t.Name)
		}
		if _, dup := s.nodes[t.Name]; dup {
			return nil, fmt.Errorf("sched: duplicate task %s", t.Name)
		}
		n := &node{task: t}
		s.nodes[t.Name] = n
		s.order = append(s.order, n)
	}
	for _, n := range s.order {
		for _, d := range n.task.Deps {
			dep, ok := s.nodes[d]
			if !ok {
				return nil, fmt.Errorf("sched: task %s depends on unknown task %s", n.task.Name, d)
			}
			dep.dependents = append(dep.dependents, n)
			n.waiting++
		}
	}
	// Kahn's algorithm purely as cycle detection.
	indeg := make(map[*node]int, len(s.order))
	var q []*node
	for _, n := range s.order {
		indeg[n] = n.waiting
		if n.waiting == 0 {
			q = append(q, n)
		}
	}
	seen := 0
	for len(q) > 0 {
		n := q[len(q)-1]
		q = q[:len(q)-1]
		seen++
		for _, d := range n.dependents {
			if indeg[d]--; indeg[d] == 0 {
				q = append(q, d)
			}
		}
	}
	if seen != len(s.order) {
		return nil, fmt.Errorf("sched: dependency cycle among %d tasks", len(s.order)-seen)
	}
	return s, nil
}

func (s *scheduler) run(ctx context.Context) (*Report, error) {
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var jobErr error
	fail := func(err error) {
		if jobErr == nil {
			jobErr = err
			cancel()
		}
	}

	doneCount, inflight, pendingRetries := 0, 0, 0

	// launch starts n's next attempt. Every caller first checks that n
	// has no attempt in flight and no retry pending.
	launch := func(n *node) {
		attempt := n.attempts
		n.attempts++
		n.running = true
		inflight++
		actx, acancel := context.WithCancel(jobCtx)
		n.cancel = acancel
		queued := time.Now()
		tc := &TaskContext{Attempt: attempt, s: s}
		go func() {
			s.sem <- struct{}{}
			started := time.Now()
			var v any
			var err error
			if cerr := actx.Err(); cerr != nil {
				err = cerr // cancelled while queued for a worker slot
			} else if n.task.Run != nil {
				v, err = n.task.Run(actx, tc)
			} else {
				v, err = s.cfg.Executor.Execute(actx, &n.task, tc)
			}
			<-s.sem
			s.events <- completion{
				n: n, attempt: attempt, value: v, err: err,
				queued: queued, started: started, finished: time.Now(),
			}
		}()
	}

	handle := func(c completion) {
		n := c.n
		inflight--
		n.running = false
		n.cancel()
		n.cancel = nil
		a := Attempt{
			Task: n.task.Name, Group: n.task.Group, Attempt: c.attempt,
			Queued: c.queued, Started: c.started, Finished: c.finished,
		}
		if c.err == nil {
			n.done = true
			doneCount++
			a.Outcome = OutcomeSuccess
			s.commit(n.task.Name, c.value)
			n.winDur = c.finished.Sub(c.started)
			if jobErr == nil && !n.everCommitted {
				n.everCommitted = true
				for _, d := range n.dependents {
					if d.waiting--; d.waiting == 0 {
						launch(d)
					}
				}
			}
			// Re-commit after output loss: relaunch waiters whose
			// lost dependencies are all available again.
			if len(n.waiters) > 0 {
				waiters := n.waiters
				n.waiters = nil
				for _, w := range waiters {
					if w.redoWait--; jobErr == nil && w.redoWait == 0 && !w.done && !w.running && !w.retryPending {
						launch(w)
					}
				}
			}
		} else {
			a.Err = c.err.Error()
			switch {
			case jobErr != nil:
				a.Outcome = OutcomeCancelled
			case lostDeps(c.err) != nil:
				// The attempt could not run because committed dependency
				// output vanished (a cluster worker died with its map
				// segments). This is not the reporting task's fault: leave
				// its retry budget alone, un-commit the lost dependencies,
				// re-execute them, and relaunch this task when they have
				// all committed again.
				a.Outcome = OutcomeDepLost
				for _, name := range lostDeps(c.err) {
					dep, ok := s.nodes[name]
					if !ok {
						fail(fmt.Errorf("sched: task %s reported lost output of unknown task %s",
							n.task.Name, name))
						break
					}
					n.redoWait++
					dep.waiters = append(dep.waiters, n)
					if !dep.done {
						continue // already being re-executed for another waiter
					}
					dep.done = false
					doneCount--
					dep.reexecs++
					if dep.reexecs >= s.cfg.MaxReexecs {
						fail(fmt.Errorf("sched: task %s lost its output %d times (max %d): %w",
							dep.task.Name, dep.reexecs, s.cfg.MaxReexecs, c.err))
						break
					}
					if s.cfg.Tracer != nil {
						now := time.Now()
						s.cfg.Tracer.Record(obs.KindReexec, dep.task.Name, now, now,
							obs.Str("lost-by", n.task.Name),
							obs.Int("re-execution", int64(dep.reexecs)))
					}
					if !dep.running && !dep.retryPending {
						launch(dep)
					}
				}
			default:
				n.failures++
				switch {
				case s.cfg.Retryable != nil && s.cfg.Retryable(c.err) && n.failures < s.cfg.MaxAttempts:
					a.Outcome = OutcomeRetrying
					n.retryPending = true
					pendingRetries++
					backoff := retryDelay << (n.failures - 1)
					if backoff > maxRetryDelay || backoff <= 0 {
						backoff = maxRetryDelay
					}
					nn := n
					time.AfterFunc(backoff, func() { s.retries <- nn })
				default:
					a.Outcome = OutcomeFailed
					fail(fmt.Errorf("sched: task %s failed (attempt %d of %d): %w",
						n.task.Name, n.failures, s.cfg.MaxAttempts, c.err))
				}
			}
		}
		if s.cfg.Tracer != nil {
			attrs := []obs.Attr{
				obs.Int("attempt", int64(c.attempt)),
				obs.Str("outcome", string(a.Outcome)),
			}
			if a.Err != "" {
				attrs = append(attrs, obs.Str("err", a.Err))
			}
			s.cfg.Tracer.Record(n.task.Group, n.task.Name, c.started, c.finished, attrs...)
		}
		s.attemptsLog = append(s.attemptsLog, a)
	}

	for _, n := range s.order {
		if n.waiting == 0 {
			launch(n)
		}
	}

	extDone := ctx.Done()

	for {
		if jobErr != nil {
			if inflight == 0 && pendingRetries == 0 {
				break
			}
		} else if doneCount == len(s.order) && inflight == 0 {
			break
		}
		select {
		case c := <-s.events:
			handle(c)
		case n := <-s.retries:
			pendingRetries--
			n.retryPending = false
			if jobErr == nil && !n.done {
				launch(n)
			}
		case <-extDone:
			fail(ctx.Err())
			extDone = nil
		}
	}

	if jobErr != nil {
		return nil, jobErr
	}
	rep := &Report{
		Attempts:  s.attemptsLog,
		values:    s.values,
		durations: make(map[string]time.Duration, len(s.order)),
	}
	for _, n := range s.order {
		rep.durations[n.task.Name] = n.winDur
	}
	return rep, nil
}
