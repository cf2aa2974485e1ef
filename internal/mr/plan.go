package mr

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sched"
)

// Task groups of the job graph, as they appear in Result.Timeline.
const (
	TaskGroupMap    = "map"
	TaskGroupFetch  = "fetch"
	TaskGroupReduce = "reduce"
)

// defaultReduceTasks is what Job.NumReduceTasks means when left at 0.
const defaultReduceTasks = 4

// MapTaskName / FetchTaskName / ReduceTaskName are the canonical task
// names of the job graph: sched task names, Result.Timeline entries,
// trace spans and fleet leases all carry them.
func MapTaskName(i int) string { return TaskGroupMap + "/" + strconv.Itoa(i) }
func FetchTaskName(p, i int) string {
	return TaskGroupFetch + "/" + strconv.Itoa(p) + "/" + strconv.Itoa(i)
}
func ReduceTaskName(p int) string { return TaskGroupReduce + "/" + strconv.Itoa(p) }

// Plan is the shape of one job's task graph,
//
//	map/i  ──►  fetch/p/i  ──►  reduce/p
//
// and the only place it is laid out: the in-process engine attaches
// closures to Tasks and a fleet leases the same tasks to workers. One
// fetch task exists per (reduce partition, map task) and becomes
// runnable the moment its map task commits, so fetches overlap
// still-running map tasks; a reduce task runs once all of its
// partition's fetches committed. An Aligned job (Job.AlignedInput)
// routes map i's output wholly to partition i, so only the diagonal
// fetch/p/p exists and reduce p depends on map p alone.
type Plan struct {
	Maps, Reduces int
	Aligned       bool
}

// NewPlan lays out job's graph over inputs map inputs (splits, or the
// stage inputs of a pipeline job), applying the NumReduceTasks default.
func NewPlan(job *Job, inputs int) (Plan, error) {
	pl := Plan{Maps: inputs, Reduces: job.NumReduceTasks, Aligned: job.AlignedInput}
	if pl.Reduces <= 0 {
		pl.Reduces = defaultReduceTasks
	}
	if pl.Aligned && pl.Maps != pl.Reduces {
		return Plan{}, fmt.Errorf("%w: AlignedInput needs exactly NumReduceTasks (%d) splits, got %d",
			errJob, pl.Reduces, pl.Maps)
	}
	return pl, nil
}

// Sources lists the map tasks whose output feeds partition p, in the
// order reduce p must merge their segments: the k-way merge breaks key
// ties by stream index, so map-task order is what makes equal-key
// output order independent of scheduling.
func (pl Plan) Sources(p int) []int {
	if pl.Aligned {
		return []int{p}
	}
	src := make([]int, pl.Maps)
	for i := range src {
		src[i] = i
	}
	return src
}

// Fetches is the number of fetch tasks.
func (pl Plan) Fetches() int {
	if pl.Aligned {
		return pl.Reduces
	}
	return pl.Maps * pl.Reduces
}

// Tasks returns the graph — maps, then each partition's fetches, then
// reduces — with nil Run: the caller attaches closures or dispatches
// through a sched.Executor. A reduce task's Deps are its partition's
// fetch tasks in Sources order.
func (pl Plan) Tasks() []sched.Task {
	tasks := make([]sched.Task, 0, pl.Maps+pl.Fetches()+pl.Reduces)
	for i := 0; i < pl.Maps; i++ {
		tasks = append(tasks, sched.Task{Name: MapTaskName(i), Group: TaskGroupMap})
	}
	reduces := make([]sched.Task, pl.Reduces)
	for p := range reduces {
		src := pl.Sources(p)
		deps := make([]string, len(src))
		for d, i := range src {
			deps[d] = FetchTaskName(p, i)
			tasks = append(tasks, sched.Task{Name: deps[d], Group: TaskGroupFetch, Deps: []string{MapTaskName(i)}})
		}
		reduces[p] = sched.Task{Name: ReduceTaskName(p), Group: TaskGroupReduce, Deps: deps}
	}
	return append(tasks, reduces...)
}

// TaskID is a task name taken apart: its group, and the map task and
// reduce partition it concerns (-1 where the group has none).
type TaskID struct {
	Group     string
	Map       int
	Partition int
}

// Lookup resolves one of the plan's task names.
func (pl Plan) Lookup(name string) (TaskID, bool) {
	group, rest, _ := strings.Cut(name, "/")
	switch group {
	case TaskGroupMap:
		if i, ok := taskIndex(rest, pl.Maps); ok {
			return TaskID{Group: group, Map: i, Partition: -1}, true
		}
	case TaskGroupReduce:
		if p, ok := taskIndex(rest, pl.Reduces); ok {
			return TaskID{Group: group, Map: -1, Partition: p}, true
		}
	case TaskGroupFetch:
		ps, is, _ := strings.Cut(rest, "/")
		p, okP := taskIndex(ps, pl.Reduces)
		i, okI := taskIndex(is, pl.Maps)
		if okP && okI && (!pl.Aligned || p == i) {
			return TaskID{Group: group, Map: i, Partition: p}, true
		}
	}
	return TaskID{}, false
}

// taskIndex parses s as a canonical index below n.
func taskIndex(s string, n int) (int, bool) {
	v, err := strconv.Atoi(s)
	return v, err == nil && v >= 0 && v < n && strconv.Itoa(v) == s
}
