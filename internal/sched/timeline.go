package sched

import "time"

// Outcome classifies how one attempt ended.
type Outcome string

const (
	// OutcomeSuccess marks the attempt that committed the task's value.
	OutcomeSuccess Outcome = "success"
	// OutcomeFailed marks an attempt that errored with no retry
	// scheduled from it: it failed the whole job.
	OutcomeFailed Outcome = "failed"
	// OutcomeRetrying marks a failed attempt whose error was classified
	// transient and for which a retry was scheduled.
	OutcomeRetrying Outcome = "retrying"
	// OutcomeCancelled marks an attempt aborted because the job failed.
	OutcomeCancelled Outcome = "cancelled"
	// OutcomeDepLost marks an attempt that could not run because a
	// committed dependency's output had vanished (e.g. a cluster worker
	// died with its map segments); the scheduler re-executes the
	// dependency and relaunches the task without charging its budget.
	OutcomeDepLost Outcome = "dep-lost"
)

// Attempt is one entry of the per-task event timeline: a single
// execution attempt with its queued/start/finish timestamps and outcome.
type Attempt struct {
	// Task is the task name, Group its timeline group.
	Task  string
	Group string
	// Attempt is the 0-based attempt index within the task.
	Attempt int
	// Queued is when the attempt was dispatched to the worker pool,
	// Started when a worker picked it up, Finished when Run returned.
	Queued   time.Time
	Started  time.Time
	Finished time.Time
	// Outcome classifies the attempt; Err holds the error text for
	// non-success outcomes.
	Outcome Outcome
	Err     string
}

// Duration is the attempt's execution time (excluding queue wait).
func (a Attempt) Duration() time.Duration { return a.Finished.Sub(a.Started) }

// Span reports the wall-clock interval covered by a group's attempts:
// the earliest start to the latest finish. ok is false when the group
// has no attempts.
func Span(attempts []Attempt, group string) (start, end time.Time, ok bool) {
	for _, a := range attempts {
		if a.Group != group {
			continue
		}
		if !ok || a.Started.Before(start) {
			start = a.Started
		}
		if !ok || a.Finished.After(end) {
			end = a.Finished
		}
		ok = true
	}
	return start, end, ok
}

// Overlap reports how long the spans of two groups intersected — e.g.
// Overlap(tl, "map", "fetch") > 0 proves shuffle fetches ran while map
// tasks were still executing, the overlap a barrier scheduler forbids.
func Overlap(attempts []Attempt, groupA, groupB string) time.Duration {
	aStart, aEnd, ok := Span(attempts, groupA)
	if !ok {
		return 0
	}
	bStart, bEnd, ok := Span(attempts, groupB)
	if !ok {
		return 0
	}
	start, end := aStart, aEnd
	if bStart.After(start) {
		start = bStart
	}
	if bEnd.Before(end) {
		end = bEnd
	}
	if d := end.Sub(start); d > 0 {
		return d
	}
	return 0
}
