package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/sched"
)

// JobSpec describes one job submission to a fleet.
type JobSpec struct {
	// Ref names the registry job to run.
	Ref JobRef
	// Tenant is the fair-share accounting bucket (default "default"):
	// lease dispatch equalizes running-lease share across tenants.
	Tenant string
	// Weight scales the tenant's fair share (default 1); dispatch
	// compares running/weight across tenants, so a weight-2 job's tenant
	// sustains twice the running leases of a weight-1 tenant under
	// contention.
	Weight int
	// Priority breaks fair-share ties, higher first.
	Priority int
	// MaxTaskAttempts caps attempts per task, counting both retries and
	// re-executions after output loss (default 4).
	MaxTaskAttempts int
	// Exclusive marks the classic one-shot shape (one fleet, one job):
	// the fleet's worker-wide gauges (pool dials, RPC retries, integrity
	// faults) are folded into the Result — attributable only when no
	// other job shares the workers — as are the segment servers' disk
	// reads.
	Exclusive bool
	// Inputs, when non-empty, makes this a pipeline stage job: one map
	// task per entry, fed from the entry (inline records or a retained
	// handoff) instead of registry-built splits. The registry builder may
	// then return zero splits.
	Inputs []StageInput
	// KeepOutput leaves reduce output where the reduces wrote it: the
	// per-partition handoff files in the job's worker workspaces
	// (reported via JobHandle.Handoffs), the no-re-spill path a
	// downstream stage consumes. The job's Result carries no records, and
	// its workspace outlives the job until Fleet.ReleaseWorkspace.
	KeepOutput bool
	// Homes seeds partition→worker placement (a previous stage's homes),
	// so a stage's fetches and reduces land where its inputs already
	// live. Dead or unknown workers are re-elected as usual.
	Homes map[int]int
	// OnEvent, when non-nil, observes this job's task events (in addition
	// to the fleet's OnEvent). It must not call back into the fleet.
	OnEvent func(Event)
}

func (s JobSpec) normalized() JobSpec {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if s.MaxTaskAttempts <= 0 {
		s.MaxTaskAttempts = 4
	}
	return s
}

// Progress is a job's task-level completion snapshot.
type Progress struct {
	MapsDone       int `json:"maps_done"`
	MapsTotal      int `json:"maps_total"`
	FetchesDone    int `json:"fetches_done"`
	FetchesTotal   int `json:"fetches_total"`
	ReducesDone    int `json:"reduces_done"`
	ReducesTotal   int `json:"reduces_total"`
	TasksDone      int `json:"tasks_done"`
	TasksTotal     int `json:"tasks_total"`
	FailedAttempts int `json:"failed_attempts"`
}

// JobHandle tracks one submitted job.
type JobHandle struct {
	id   int
	j    *jobRun
	done chan struct{}
	res  *mr.Result
	err  error
}

// ID is the fleet-assigned job id (also the job's workspace name on
// workers: "j%06d").
func (h *JobHandle) ID() int { return h.id }

// Done is closed when the job finishes (either way).
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Wait blocks until the job finishes and returns its result.
func (h *JobHandle) Wait(ctx context.Context) (*mr.Result, error) {
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Progress reports the job's current task completion.
func (h *JobHandle) Progress() Progress { return h.j.progress() }

// Handoff locates one kept reduce partition: the worker that holds it
// and the segment describing the retained record file.
type Handoff struct {
	Worker int
	Seg    mr.SegmentInfo
}

// Handoffs returns the finished job's kept reduce output by partition
// (KeepOutput jobs only; nil otherwise). Valid after Done.
func (h *JobHandle) Handoffs() map[int]Handoff {
	h.j.pmu.Lock()
	defer h.j.pmu.Unlock()
	return maps.Clone(h.j.handoffs)
}

// Homes returns the job's final partition→worker placement, for seeding
// the next stage's JobSpec.Homes. Valid after Done.
func (h *JobHandle) Homes() map[int]int {
	f := h.j.fleet
	f.mu.Lock()
	defer f.mu.Unlock()
	return maps.Clone(h.j.partHome)
}

// Submit registers a job with the fleet and starts running it under
// ctx; cancelling ctx cancels the job (running attempts are revoked on
// workers via heartbeat). The job starts as soon as workers are
// available — Submit itself never blocks on fleet capacity.
func (f *Fleet) Submit(ctx context.Context, spec JobSpec) (*JobHandle, error) {
	spec = spec.normalized()
	job, splits, err := BuildJob(spec.Ref)
	if err != nil {
		return nil, err
	}
	nMap := len(splits)
	if len(spec.Inputs) > 0 {
		// Stage jobs take their inputs from the spec, not the registry.
		nMap = len(spec.Inputs)
	} else if nMap == 0 {
		return nil, fmt.Errorf("cluster: job %q built zero splits", spec.Ref.Name)
	}
	plan, err := mr.NewPlan(job, nMap)
	if err != nil {
		return nil, fmt.Errorf("cluster: job %q: %w", spec.Ref.Name, err)
	}
	f.mu.Lock()
	if f.shutdown {
		f.mu.Unlock()
		return nil, errors.New("cluster: fleet is shutting down")
	}
	id := f.nextJob
	f.nextJob++
	j := &jobRun{
		id: id, spec: spec, fleet: f, plan: plan,
		partHome: make(map[int]int),
		doneTask: make(map[string]bool),
	}
	for p, wid := range spec.Homes {
		if w := f.workers[wid]; w != nil && !w.dead && !w.draining && p >= 0 && p < plan.Reduces {
			j.partHome[p] = wid
		}
	}
	f.jobs[id] = j
	f.mu.Unlock()

	h := &JobHandle{id: id, j: j, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.res, h.err = j.run(ctx)
		f.finishJob(j)
	}()
	return h, nil
}

// ErrHandoffLost marks a stage job whose handoff input died with its
// holding worker. It is terminal for this job — the upstream stage's
// output is gone, and only the pipeline runner (which still owns the
// producing stage) can re-run it; dag.Runner converts it into a
// stage-level DepLostError.
var ErrHandoffLost = errors.New("cluster: stage handoff input lost")

// jobRun is one job's private half of the runtime: its plan (the task
// graph, laid out by mr), partition homes, progress counters, and
// result assembly. Every task's Run is execute: the job's own scheduler
// calls it, and it queues a lease with the fleet and blocks for the
// report. partHome and enqueue/dispatch state are guarded by the
// fleet's mutex; progress counters by the job's own.
type jobRun struct {
	id    int
	spec  JobSpec
	fleet *Fleet
	plan  mr.Plan

	partHome map[int]int // reduce partition -> home worker id; fleet.mu

	pmu      sync.Mutex
	doneTask map[string]bool
	failed   int
	handoffs map[int]Handoff // kept reduce output, by partition
}

func (j *jobRun) progress() Progress {
	j.pmu.Lock()
	defer j.pmu.Unlock()
	p := Progress{
		MapsTotal: j.plan.Maps, FetchesTotal: j.plan.Fetches(), ReducesTotal: j.plan.Reduces,
		FailedAttempts: j.failed,
	}
	for name := range j.doneTask {
		id, _ := j.plan.Lookup(name)
		switch id.Group {
		case mr.TaskGroupMap:
			p.MapsDone++
		case mr.TaskGroupFetch:
			p.FetchesDone++
		case mr.TaskGroupReduce:
			p.ReducesDone++
		}
	}
	p.TasksDone = p.MapsDone + p.FetchesDone + p.ReducesDone
	p.TasksTotal = p.MapsTotal + p.FetchesTotal + p.ReducesTotal
	return p
}

func (j *jobRun) event(e Event) {
	j.fleet.event(e)
	if j.spec.OnEvent != nil {
		j.spec.OnEvent(e)
	}
}

// run executes the job's task graph through the fleet and assembles an
// mr.Result whose output is byte-identical to a single-process run of
// the same job — MeasuredShuffle additionally records the real network
// transfer.
func (j *jobRun) run(ctx context.Context) (*mr.Result, error) {
	start := time.Now()
	tracer := j.fleet.cfg.Tracer
	jobSpan := tracer.Start(obs.KindJob, j.spec.Ref.Name+" (cluster)",
		obs.Int("job", int64(j.id)),
		obs.Int("splits", int64(j.plan.Maps)), obs.Int("reducers", int64(j.plan.Reduces)))

	// Every attempt is a lease. Every runnable task is exposed to the
	// fleet, so fair share picks among all jobs' work and the fleet's
	// slots, not the scheduler's worker bound, are the concurrency limit.
	tasks := j.plan.Tasks()
	for i := range tasks {
		task := &tasks[i]
		task.Run = func(ctx context.Context, tc *sched.TaskContext) (any, error) {
			return j.execute(ctx, task, tc)
		}
	}
	cfg := sched.Config{
		Workers:     len(tasks),
		MaxAttempts: j.spec.MaxTaskAttempts,
		Tracer:      tracer,
		Retryable: func(err error) bool {
			var te *taskError
			return errors.As(err, &te) && te.Transient
		},
	}
	report, err := sched.Run(ctx, tasks, cfg)
	if err != nil {
		jobSpan.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
		return nil, err
	}
	res := j.assemble(report, start)
	jobSpan.End(obs.Str("outcome", "success"),
		obs.Int("measured_shuffle_bytes", res.MeasuredShuffle.Bytes))
	return res, nil
}

// Committed task values. Stats ride inside them so only committed
// attempts contribute to job stats (a failed attempt's snapshot is
// discarded with its report).
type mapValue struct {
	worker int
	segs   []mr.SegmentInfo
	stats  mr.Stats
	dur    time.Duration
}

type fetchValue struct {
	worker    int
	segs      []mr.SegmentInfo
	flow      int64
	fetchTime time.Duration
	fetches   int
	stats     mr.Stats
}

type reduceValue struct {
	worker  int
	recs    []mr.Record // pulled from handoff, unless the job keeps its output
	handoff *mr.SegmentInfo
	stats   mr.Stats
	dur     time.Duration
}

// execute runs one attempt of task: queue it as a lease with the
// fleet (pinned to the partition home for fetch and reduce tasks),
// block for the worker's report (or cancellation), and translate the
// outcome into the scheduler's vocabulary — including DepLostError when
// committed upstream output turns out to live on a dead worker.
func (j *jobRun) execute(ctx context.Context, task *sched.Task, tc *sched.TaskContext) (any, error) {
	f := j.fleet
	id, _ := j.plan.Lookup(task.Name)
	lease := TaskLease{JobID: j.id, Task: task.Name, Group: task.Group, Attempt: tc.Attempt}
	pin := -1

	f.mu.Lock()
	if f.shutdown {
		f.mu.Unlock()
		return nil, &taskError{Msg: "cluster: fleet is shutting down", Transient: false}
	}
	switch id.Group {
	case mr.TaskGroupMap:
		lease.MapTask = id.Map // any worker may take it
		if len(j.spec.Inputs) > 0 {
			in := j.spec.Inputs[id.Map]
			lease.Input = &in
			if in.Handoff != nil {
				// A handoff input lives on the worker that reduced the
				// previous stage. Pin the lease there when it is alive so
				// stage-to-stage data never moves; a draining holder still
				// serves segment fetches, so any worker can pull the file
				// remotely. A dead holder means the bytes are gone — only
				// the pipeline runner can rebuild them.
				switch holder := f.workers[in.Worker]; {
				case holder == nil || holder.dead:
					f.mu.Unlock()
					return nil, fmt.Errorf("%w: map %d input on dead worker %d",
						ErrHandoffLost, id.Map, in.Worker)
				case !holder.draining:
					pin = holder.id
				}
			}
		}

	case mr.TaskGroupFetch:
		mv, ok := tc.Dep(mr.MapTaskName(id.Map)).(mapValue)
		if !ok {
			f.mu.Unlock()
			return nil, fmt.Errorf("cluster: fetch %s missing map value", task.Name)
		}
		if src := f.workers[mv.worker]; src == nil || src.dead {
			f.mu.Unlock()
			return nil, &sched.DepLostError{
				Deps: []string{mr.MapTaskName(id.Map)},
				Err:  fmt.Errorf("cluster: worker %d holding map output is dead", mv.worker),
			}
		}
		lease.Partition = id.Partition
		lease.MapIndex = id.Map
		for _, s := range mv.segs {
			if s.Partition == id.Partition {
				lease.Sources = append(lease.Sources, s)
			}
		}
		home := j.homeLocked(id.Partition)
		if home == nil {
			f.mu.Unlock()
			return nil, &taskError{Msg: "cluster: no live workers", Transient: true}
		}
		if len(lease.Sources) == 0 {
			// Nothing to move for this (partition, map) pair: commit an
			// empty fetch value on the home worker without a round trip.
			id := home.id
			f.mu.Unlock()
			return fetchValue{worker: id}, nil
		}
		pin = home.id

	case mr.TaskGroupReduce:
		home, lost, locals, localTasks := j.reduceInputsLocked(id.Partition, tc)
		if len(lost) > 0 {
			f.mu.Unlock()
			return nil, &sched.DepLostError{
				Deps: lost,
				Err:  fmt.Errorf("cluster: partition %d inputs scattered or on dead workers", id.Partition),
			}
		}
		if home == nil {
			f.mu.Unlock()
			return nil, &taskError{Msg: "cluster: no live workers", Transient: true}
		}
		lease.Partition = id.Partition
		lease.Locals = locals
		lease.LocalTasks = localTasks
		pin = home.id
	}

	key := AttemptID{Job: j.id, Task: task.Name, Attempt: tc.Attempt}
	pend := &pendingLease{job: j, worker: -1, ch: make(chan *ReportArgs, 1)}
	ql := &queuedLease{job: j, lease: lease, pin: pin, pend: pend, seq: f.seq}
	f.seq++
	pend.ql = ql
	f.pending[key] = pend
	f.enqueueLocked(ql)
	f.mu.Unlock()

	select {
	case rep := <-pend.ch:
		return j.settle(ctx, task, pend, rep)
	case <-ctx.Done():
		// Revoke: a granted lease is aborted by its worker on the next
		// heartbeat; a queued one is simply pruned.
		f.dropLease(key, pend)
		return nil, ctx.Err()
	}
}

// homeLocked returns partition p's home worker, electing a new one if
// none is assigned or the previous home died or drained. All of a
// partition's fetch and reduce leases go to its home, so reduce inputs
// are local. Election is least-loaded across live workers.
func (j *jobRun) homeLocked(p int) *workerState {
	f := j.fleet
	if id, ok := j.partHome[p]; ok {
		if w := f.workers[id]; w != nil && !w.dead && !w.draining {
			return w
		}
	}
	var best *workerState
	for _, w := range f.workers {
		if w.dead || w.draining {
			continue
		}
		if best == nil || w.outstanding < best.outstanding ||
			(w.outstanding == best.outstanding && w.id < best.id) {
			best = w
		}
	}
	if best != nil {
		j.partHome[p] = best.id
	}
	return best
}

// reduceInputsLocked validates that every fetch value for partition p
// is local to the partition's current live home, returning the lost
// fetch task names otherwise.
func (j *jobRun) reduceInputsLocked(p int, tc *sched.TaskContext) (home *workerState, lost []string, locals []mr.SegmentInfo, localTasks []string) {
	f := j.fleet
	if id, ok := j.partHome[p]; ok {
		if w := f.workers[id]; w != nil && !w.dead && !w.draining {
			home = w
		}
	}
	for _, i := range j.plan.Sources(p) {
		name := mr.FetchTaskName(p, i)
		fv, ok := tc.Dep(name).(fetchValue)
		if !ok {
			lost = append(lost, name)
			continue
		}
		if home == nil || fv.worker != home.id {
			lost = append(lost, name)
			continue
		}
		for _, s := range fv.segs {
			locals = append(locals, s)
			localTasks = append(localTasks, name)
		}
	}
	return home, lost, locals, localTasks
}

// settle turns a worker's report into execute's return value. A
// reduce's output is pulled here, before the attempt commits, and a
// pull that fails fails the attempt like a failed fetch. The pull is
// transport, not job work: no counter or meter sees it.
func (j *jobRun) settle(ctx context.Context, task *sched.Task, pend *pendingLease, rep *ReportArgs) (any, error) {
	f := j.fleet
	var recs []mr.Record
	if rep.Errmsg == "" && task.Group == mr.TaskGroupReduce && !j.spec.KeepOutput {
		var err error
		if recs, err = f.ReadOutput(ctx, *rep.Handoff); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			rep.Errmsg, rep.Transient = err.Error(), true
			rep.Unreachable = []string{rep.Handoff.Addr}
		}
	}
	now := time.Now()
	if f.cfg.Tracer != nil && !pend.granted.IsZero() {
		f.cfg.Tracer.Record(obs.KindLease, task.Name, pend.granted, now,
			obs.Int("job", int64(j.id)), obs.Int("worker", int64(rep.WorkerID)),
			obs.Str("group", task.Group), obs.Bool("ok", rep.Errmsg == ""))
	}
	if rep.Errmsg != "" {
		f.noteUnreachable(rep.Unreachable)
		j.pmu.Lock()
		j.failed++
		j.pmu.Unlock()
		j.event(Event{Kind: "task-failed", Worker: rep.WorkerID, Job: j.id,
			Task: task.Name, Attempt: rep.Attempt, Detail: rep.Errmsg})
		if len(rep.LostDeps) > 0 {
			return nil, &sched.DepLostError{Deps: rep.LostDeps, Err: errors.New(rep.Errmsg)}
		}
		return nil, &taskError{Msg: rep.Errmsg, Transient: rep.Transient}
	}
	j.pmu.Lock()
	j.doneTask[task.Name] = true
	j.pmu.Unlock()
	j.event(Event{Kind: "task-done", Worker: rep.WorkerID, Job: j.id,
		Task: task.Name, Attempt: rep.Attempt})
	switch task.Group {
	case mr.TaskGroupMap:
		return mapValue{
			worker: rep.WorkerID, segs: rep.Segs,
			stats: rep.Stats, dur: time.Duration(rep.DurNs),
		}, nil
	case mr.TaskGroupFetch:
		return fetchValue{
			worker: rep.WorkerID, segs: rep.Segs, flow: rep.FlowBytes,
			fetchTime: time.Duration(rep.FetchNs), fetches: rep.Fetches,
			stats: rep.Stats,
		}, nil
	default:
		return reduceValue{
			worker: rep.WorkerID, recs: recs, handoff: rep.Handoff,
			stats: rep.Stats, dur: time.Duration(rep.DurNs),
		}, nil
	}
}

// assemble builds the job Result from committed task values.
func (j *jobRun) assemble(report *sched.Report, start time.Time) *mr.Result {
	res := &mr.Result{
		Output:              make([][]mr.Record, j.plan.Reduces),
		ShufflePerPartition: make([]int64, j.plan.Reduces),
		ReduceTaskTimes:     make([]time.Duration, j.plan.Reduces),
		MapTaskTimes:        make([]time.Duration, j.plan.Maps),
		Timeline:            report.Attempts,
	}
	var stats mr.Stats
	meas := &mr.ShuffleMeasurement{}
	for i := range res.MapTaskTimes {
		mv := report.Value(mr.MapTaskName(i)).(mapValue)
		stats.Accumulate(mv.stats)
		res.MapTaskTimes[i] = mv.dur
	}
	for p := range res.Output {
		for _, i := range j.plan.Sources(p) {
			fv := report.Value(mr.FetchTaskName(p, i)).(fetchValue)
			stats.Accumulate(fv.stats)
			res.ShufflePerPartition[p] += fv.flow
			meas.Bytes += fv.flow
			meas.FetchTime += fv.fetchTime
			meas.Fetches += fv.fetches
		}
		rv := report.Value(mr.ReduceTaskName(p)).(reduceValue)
		stats.Accumulate(rv.stats)
		res.Output[p] = rv.recs
		res.ReduceTaskTimes[p] = rv.dur
		if j.spec.KeepOutput {
			j.pmu.Lock()
			if j.handoffs == nil {
				j.handoffs = make(map[int]Handoff, j.plan.Reduces)
			}
			j.handoffs[p] = Handoff{Worker: rv.worker, Seg: *rv.handoff}
			j.pmu.Unlock()
		}
	}
	if s, e, ok := sched.Span(report.Attempts, mr.TaskGroupFetch); ok {
		meas.Extent = e.Sub(s)
	}
	// Worker-wide gauges (pool dials, RPC retries, integrity faults) are
	// fleet-scoped: a worker serves many jobs, so only an Exclusive job
	// can claim them in its Result.
	if j.spec.Exclusive {
		// The segment servers read the map segments off the producers'
		// disks outside any attempt's metered view, and they read exactly
		// the bytes the fetches moved.
		stats.DiskReadBytes += meas.Bytes
		f := j.fleet
		f.mu.Lock()
		var rpcRetries, integrity int64
		for _, w := range f.workers {
			meas.Dials += w.lastDials
			rpcRetries += w.lastRPCRetries
			integrity += w.lastIntegrity
		}
		f.mu.Unlock()
		if rpcRetries > 0 || integrity > 0 {
			if stats.Extra == nil {
				stats.Extra = make(map[string]int64, 2)
			}
			if rpcRetries > 0 {
				stats.Extra[CounterRPCRetries] += rpcRetries
			}
			if integrity > 0 {
				stats.Extra[mr.CounterFetchIntegrity] += integrity
			}
		}
	}
	stats.WallTime = time.Since(start)
	res.Stats = stats
	res.MeasuredShuffle = meas
	return res
}
