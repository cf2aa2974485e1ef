package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"repro/internal/mr"
	"repro/internal/obs"
)

// FleetConfig tunes a fleet.
type FleetConfig struct {
	// Addr is the RPC listen address (default "127.0.0.1:0").
	Addr string
	// HeartbeatEvery is the worker heartbeat interval (default 50ms);
	// HeartbeatMiss is how many missed intervals declare a worker dead
	// (default 4).
	HeartbeatEvery time.Duration
	HeartbeatMiss  int
	// Tracer, when non-nil, receives job/worker/heartbeat/lease spans in
	// addition to each job scheduler's per-attempt spans.
	Tracer *obs.Tracer
	// OnEvent, when non-nil, observes fleet lifecycle events (worker
	// registration, drain, and death; task reports across all jobs).
	// Tests use it to synchronize fault injection with job progress; it
	// must not call back into the fleet.
	OnEvent func(Event)
}

// Event is one fleet lifecycle observation.
type Event struct {
	// Kind is "register", "worker-drained", "worker-dead", "task-done",
	// or "task-failed".
	Kind    string
	Worker  int
	Job     int
	Task    string
	Attempt int
	Detail  string
}

func (c FleetConfig) normalized() FleetConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 50 * time.Millisecond
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 4
	}
	return c
}

// unreachableThreshold is how many distinct fetch-failure reports
// against one worker's segment server declare that worker dead even
// while its heartbeats still arrive (a half-dead worker: alive control
// plane, wedged data plane) — Hadoop's fetch-failure blacklisting.
const unreachableThreshold = 3

// leasePollTimeout bounds one Lease long-poll on the server side.
const leasePollTimeout = 200 * time.Millisecond

// taskError is a worker-reported attempt failure; Transient ones are
// retried by the scheduler.
type taskError struct {
	Msg       string
	Transient bool
}

func (e *taskError) Error() string { return e.Msg }

// errWorkerLost is the synthetic failure delivered to leases
// outstanding on a worker declared dead.
var errWorkerLost = errors.New("cluster: worker lost")

type workerState struct {
	id       int
	dataAddr string
	slots    int

	dead        bool
	draining    bool
	lastBeat    time.Time
	outstanding int         // granted leases not yet reported
	cancels     []AttemptID // delivered on next heartbeat
	cleanups    []int       // finished job IDs, delivered on next heartbeat
	unreachable int         // fetch-failure reports against this worker

	// pinned holds queued leases that must run on this worker (fetch
	// and reduce leases bound to a partition home). wake is signaled
	// when a lease this worker could take is enqueued.
	pinned []*queuedLease
	wake   chan struct{}

	// Last-observed cumulative gauges from this worker's reports.
	lastDials      int64
	lastRPCRetries int64
	lastIntegrity  int64

	span *obs.SpanRef
}

// queuedLease is one task attempt waiting for a worker slot. It sits in
// the fleet's dispatch queues until a worker's long-poll claims it (or
// its worker dies / its execute is cancelled first).
type queuedLease struct {
	job       *jobRun
	lease     TaskLease
	pin       int // worker id the lease must run on, or -1 for any
	pend      *pendingLease
	seq       int64 // FIFO tie-break within a tenant share level
	cancelled bool  // skipped (and pruned) by grant
}

// pendingLease tracks one execute call from enqueue to report. worker
// is -1 while the lease is queued and the granted worker's id after
// dispatch; ch delivers the (possibly synthetic) report exactly once.
type pendingLease struct {
	job     *jobRun
	worker  int
	granted time.Time
	ch      chan *ReportArgs
	ql      *queuedLease // non-nil while queued
}

// Fleet owns one pool of worker processes and runs many jobs over it
// concurrently. It is the shared half of the old single-job
// coordinator: worker registry, heartbeats, lease dispatch (now with
// per-tenant weighted fair share across jobs), segment-server
// blacklisting, and graceful drain/join. Per-job state — task graph,
// partition homes, stats, DepLostError recovery — lives in jobRun.
type Fleet struct {
	cfg  FleetConfig
	ln   net.Listener
	pool *mr.ConnPool // pulls reduce output off the workers

	stopMon context.CancelFunc

	mu         sync.Mutex
	workers    map[int]*workerState
	nextWorker int
	registered chan struct{} // signaled once per registration

	jobs     map[int]*jobRun
	nextJob  int
	unpinned []*queuedLease
	pending  map[AttemptID]*pendingLease
	// running counts granted (not yet reported) leases per tenant — the
	// quantity fair share equalizes, weighted by each job's Weight.
	running  map[string]int
	seq      int64
	shutdown bool
}

// NewFleet starts a fleet: RPC listener up (so Addr is dialable and
// workers may join immediately) and the heartbeat monitor running.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.normalized()
	f := &Fleet{
		cfg:        cfg,
		pool:       mr.NewConnPool(),
		workers:    make(map[int]*workerState),
		registered: make(chan struct{}, 64),
		jobs:       make(map[int]*jobRun),
		pending:    make(map[AttemptID]*pendingLease),
		running:    make(map[string]int),
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	f.ln = ln
	srv := rpc.NewServer()
	if err := srv.RegisterName("Cluster", &clusterRPC{f: f}); err != nil {
		ln.Close()
		return nil, err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	monCtx, stopMon := context.WithCancel(context.Background())
	f.stopMon = stopMon
	go f.monitorHeartbeats(monCtx)
	return f, nil
}

// Addr is the fleet's dialable RPC address.
func (f *Fleet) Addr() string { return f.ln.Addr().String() }

// Shutdown marks the fleet shut down: workers learn of it through
// their next lease or heartbeat and exit. The listener stays up so
// those final polls get an orderly Shutdown reply.
func (f *Fleet) Shutdown() {
	f.mu.Lock()
	f.shutdown = true
	for _, w := range f.workers {
		wakeLocked(w)
	}
	f.mu.Unlock()
}

// Close shuts the fleet down and stops its RPC listener, heartbeat
// monitor and data-plane connections.
func (f *Fleet) Close() error {
	f.Shutdown()
	f.stopMon()
	f.pool.Close()
	return f.ln.Close()
}

// ReadOutput pulls one reduce partition's output file from the segment
// server of the worker holding it, verifying its framing as it decodes:
// the one way reduce output reaches the fleet's side.
func (f *Fleet) ReadOutput(ctx context.Context, seg mr.SegmentInfo) ([]mr.Record, error) {
	rc, _, err := f.pool.Fetch(ctx, seg.Addr, seg.File)
	if err != nil {
		return nil, fmt.Errorf("cluster: pulling %s from %s: %w", seg.File, seg.Addr, err)
	}
	defer rc.Close()
	recs, err := mr.CollectRecords(rc)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading %s from %s: %w", seg.File, seg.Addr, err)
	}
	return recs, nil
}

func (f *Fleet) event(e Event) {
	if f.cfg.OnEvent != nil {
		f.cfg.OnEvent(e)
	}
}

// WaitWorkers blocks until n live workers are registered.
func (f *Fleet) WaitWorkers(ctx context.Context, n int) error {
	for {
		f.mu.Lock()
		live := 0
		for _, w := range f.workers {
			if !w.dead && !w.draining {
				live++
			}
		}
		f.mu.Unlock()
		if live >= n {
			return nil
		}
		select {
		case <-f.registered:
		case <-ctx.Done():
			return fmt.Errorf("cluster: waiting for %d workers: %w", n, ctx.Err())
		}
	}
}

// WorkerInfo is one worker's externally visible state.
type WorkerInfo struct {
	ID          int       `json:"id"`
	Addr        string    `json:"addr"`
	Slots       int       `json:"slots"`
	Live        bool      `json:"live"`
	Draining    bool      `json:"draining"`
	Outstanding int       `json:"outstanding"`
	LastBeat    time.Time `json:"last_beat"`
}

// Workers lists every worker the fleet has seen, dead ones included.
func (f *Fleet) Workers() []WorkerInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerInfo, 0, len(f.workers))
	for _, w := range f.workers {
		out = append(out, WorkerInfo{
			ID: w.id, Addr: w.dataAddr, Slots: w.slots,
			Live: !w.dead, Draining: w.draining,
			Outstanding: w.outstanding, LastBeat: w.lastBeat,
		})
	}
	return out
}

// DrainWorker asks a worker to drain gracefully: no new leases, queued
// leases pinned to it are re-placed, and the worker — told via its
// next poll — finishes its running attempts, deregisters, and exits.
// Unknown or already-dead workers are a no-op returning false.
func (f *Fleet) DrainWorker(id int) bool {
	f.mu.Lock()
	w := f.workers[id]
	if w == nil || w.dead {
		f.mu.Unlock()
		return false
	}
	f.markDrainingLocked(w)
	f.mu.Unlock()
	return true
}

// markDrainingLocked stops lease grants to w and synthetically fails
// its queued (not yet granted) pinned leases so the schedulers re-place
// them; running attempts are left to finish.
func (f *Fleet) markDrainingLocked(w *workerState) {
	if w.draining {
		return
	}
	w.draining = true
	for _, ql := range w.pinned {
		f.failQueuedLocked(ql, fmt.Sprintf("cluster: worker %d draining", w.id))
	}
	w.pinned = nil
	wakeLocked(w)
}

// failQueuedLocked delivers a synthetic transient failure to a queued
// lease (its worker died or is draining before dispatch).
func (f *Fleet) failQueuedLocked(ql *queuedLease, why string) {
	if ql.cancelled {
		return
	}
	ql.cancelled = true
	key := AttemptID{Job: ql.lease.JobID, Task: ql.lease.Task, Attempt: ql.lease.Attempt}
	if cur, ok := f.pending[key]; !ok || cur != ql.pend {
		return
	}
	delete(f.pending, key)
	ql.pend.ch <- &ReportArgs{
		WorkerID: ql.pin, JobID: ql.lease.JobID, Task: ql.lease.Task, Attempt: ql.lease.Attempt,
		Errmsg: why, Transient: true,
	}
}

// wakeLocked nudges one of w's parked lease long-polls.
func wakeLocked(w *workerState) {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// wakeAllLocked nudges every live worker (an any-worker lease arrived).
func (f *Fleet) wakeAllLocked() {
	for _, w := range f.workers {
		if !w.dead && !w.draining {
			wakeLocked(w)
		}
	}
}

// enqueueLocked queues a lease for dispatch and wakes candidates.
func (f *Fleet) enqueueLocked(ql *queuedLease) {
	if ql.pin >= 0 {
		w := f.workers[ql.pin]
		w.pinned = append(w.pinned, ql)
		wakeLocked(w)
		return
	}
	f.unpinned = append(f.unpinned, ql)
	f.wakeAllLocked()
}

// betterLocked reports whether a should dispatch before b under
// weighted fair share: the lease whose tenant currently holds the
// smaller share of running leases (running/weight, compared
// cross-multiplied to stay in integers) wins; ties go to the higher
// job priority, then FIFO.
func (f *Fleet) betterLocked(a, b *queuedLease) bool {
	ra, wa := int64(f.running[a.job.spec.Tenant]), int64(a.job.spec.Weight)
	rb, wb := int64(f.running[b.job.spec.Tenant]), int64(b.job.spec.Weight)
	if ra*wb != rb*wa {
		return ra*wb < rb*wa
	}
	if a.job.spec.Priority != b.job.spec.Priority {
		return a.job.spec.Priority > b.job.spec.Priority
	}
	return a.seq < b.seq
}

// pruneLocked drops cancelled leases from a queue in place.
func pruneLocked(q []*queuedLease) []*queuedLease {
	kept := q[:0]
	for _, ql := range q {
		if !ql.cancelled {
			kept = append(kept, ql)
		}
	}
	// Zero the tail so dropped leases don't linger behind the slice.
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	return kept
}

// grantLocked picks the fair-share-best lease worker w can run (its
// pinned queue plus the any-worker queue) and marks it granted.
func (f *Fleet) grantLocked(w *workerState) (TaskLease, bool) {
	w.pinned = pruneLocked(w.pinned)
	f.unpinned = pruneLocked(f.unpinned)
	var best *queuedLease
	var from *[]*queuedLease
	var at int
	for _, q := range []*[]*queuedLease{&w.pinned, &f.unpinned} {
		for i, ql := range *q {
			if best == nil || f.betterLocked(ql, best) {
				best, from, at = ql, q, i
			}
		}
	}
	if best == nil {
		return TaskLease{}, false
	}
	*from = append((*from)[:at], (*from)[at+1:]...)
	best.pend.worker = w.id
	best.pend.granted = time.Now()
	best.pend.ql = nil
	w.outstanding++
	f.running[best.job.spec.Tenant]++
	return best.lease, true
}

// dropLease abandons a pending lease after its execute was cancelled;
// a granted lease additionally queues an abort for the worker's next
// heartbeat.
func (f *Fleet) dropLease(key AttemptID, pend *pendingLease) {
	f.mu.Lock()
	if cur, ok := f.pending[key]; ok && cur == pend {
		delete(f.pending, key)
		if pend.worker >= 0 {
			if w := f.workers[pend.worker]; w != nil {
				w.outstanding--
				if !w.dead {
					w.cancels = append(w.cancels, key)
				}
			}
			f.running[pend.job.spec.Tenant]--
		} else if pend.ql != nil {
			pend.ql.cancelled = true
		}
	}
	f.mu.Unlock()
}

// noteUnreachable counts fetch-failure evidence against segment
// servers; enough distinct reports declare the owning worker dead even
// while its heartbeats arrive (wedged data plane).
func (f *Fleet) noteUnreachable(addrs []string) {
	if len(addrs) == 0 {
		return
	}
	var died []*workerState
	f.mu.Lock()
	for _, addr := range addrs {
		for _, w := range f.workers {
			if w.dataAddr != addr || w.dead {
				continue
			}
			if w.unreachable++; w.unreachable >= unreachableThreshold {
				died = append(died, w)
				f.markDeadLocked(w, "segment server unreachable")
			}
		}
	}
	f.mu.Unlock()
	for _, w := range died {
		f.event(Event{Kind: "worker-dead", Worker: w.id, Detail: "unreachable"})
	}
}

// monitorHeartbeats declares workers dead after HeartbeatMiss missed
// intervals and fails their outstanding leases so each job's scheduler
// can retry the work elsewhere.
func (f *Fleet) monitorHeartbeats(ctx context.Context) {
	t := time.NewTicker(f.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-ctx.Done():
			return
		}
		limit := time.Duration(f.cfg.HeartbeatMiss) * f.cfg.HeartbeatEvery
		now := time.Now()
		var died []*workerState
		f.mu.Lock()
		for _, w := range f.workers {
			if !w.dead && now.Sub(w.lastBeat) > limit {
				died = append(died, w)
				f.markDeadLocked(w, "missed heartbeats")
			}
		}
		f.mu.Unlock()
		for _, w := range died {
			f.event(Event{Kind: "worker-dead", Worker: w.id, Detail: "missed heartbeats"})
		}
	}
}

// markDeadLocked transitions a worker to dead: its granted leases
// receive synthetic transient failures (each job's scheduler re-places
// them), its queued pinned leases are re-placed the same way, and its
// committed map output will be found lost by the fetch dispatch
// pre-check, triggering re-execution.
func (f *Fleet) markDeadLocked(w *workerState, why string) {
	w.dead = true
	w.draining = true
	if f.cfg.Tracer != nil {
		now := time.Now()
		f.cfg.Tracer.Record(obs.KindHeartbeat, fmt.Sprintf("worker-%d lost", w.id),
			now, now, obs.Str("reason", why))
	}
	if w.span != nil {
		w.span.End(obs.Str("outcome", "dead"), obs.Str("reason", why))
		w.span = nil
	}
	for key, pend := range f.pending {
		if pend.worker != w.id {
			continue
		}
		delete(f.pending, key)
		w.outstanding--
		f.running[pend.job.spec.Tenant]--
		pend.ch <- &ReportArgs{
			WorkerID: w.id, JobID: key.Job, Task: key.Task, Attempt: key.Attempt,
			Errmsg:    fmt.Sprintf("%v: worker %d (%s)", errWorkerLost, w.id, why),
			Transient: true,
		}
	}
	for _, ql := range w.pinned {
		f.failQueuedLocked(ql, fmt.Sprintf("%v: worker %d (%s)", errWorkerLost, w.id, why))
	}
	w.pinned = nil
	wakeLocked(w)
}

// finishJob retires a completed job: it leaves the dispatch tables and
// every live worker is told (on its next heartbeat) to delete the
// job's workspace files and drop its cached build.
func (f *Fleet) finishJob(j *jobRun) {
	f.mu.Lock()
	delete(f.jobs, j.id)
	if !j.spec.KeepOutput {
		for _, w := range f.workers {
			if !w.dead {
				w.cleanups = append(w.cleanups, j.id)
			}
		}
	}
	f.mu.Unlock()
}

// ReleaseWorkspace sweeps a KeepOutput job's worker-side files —
// called by the pipeline runner once no later stage still reads the
// job's handoff output. Safe to call for unknown or already-swept job
// ids (the worker-side sweep is an idempotent prefix delete).
func (f *Fleet) ReleaseWorkspace(jobID int) {
	f.mu.Lock()
	for _, w := range f.workers {
		if !w.dead {
			w.cleanups = append(w.cleanups, jobID)
		}
	}
	f.mu.Unlock()
}

// Metrics is an obs.Source-shaped snapshot of fleet-wide gauges.
func (f *Fleet) Metrics() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var live, draining, slots, granted int64
	for _, w := range f.workers {
		if w.dead {
			continue
		}
		if w.draining {
			draining++
		} else {
			live++
			slots += int64(w.slots)
		}
		granted += int64(w.outstanding)
	}
	queued := int64(len(f.pending)) - granted
	if queued < 0 {
		queued = 0
	}
	return map[string]int64{
		"workers_live":     live,
		"workers_draining": draining,
		"slots":            slots,
		"leases_running":   granted,
		"leases_queued":    queued,
		"jobs_running":     int64(len(f.jobs)),
	}
}

// clusterRPC is the fleet's RPC surface.
type clusterRPC struct {
	f *Fleet
}

func (r *clusterRPC) Register(args *RegisterArgs, reply *RegisterReply) error {
	f := r.f
	f.mu.Lock()
	if f.shutdown {
		f.mu.Unlock()
		return errors.New("cluster: fleet is shutting down")
	}
	id := f.nextWorker
	f.nextWorker++
	slots := args.Slots
	if slots <= 0 {
		slots = 1
	}
	w := &workerState{
		id: id, dataAddr: args.DataAddr, slots: slots,
		wake: make(chan struct{}, 1), lastBeat: time.Now(),
	}
	if f.cfg.Tracer != nil {
		w.span = f.cfg.Tracer.Start(obs.KindWorker, fmt.Sprintf("worker-%d", id),
			obs.Str("data_addr", args.DataAddr), obs.Int("slots", int64(slots)))
	}
	f.workers[id] = w
	f.mu.Unlock()

	reply.WorkerID = id
	reply.HeartbeatEvery = f.cfg.HeartbeatEvery
	f.event(Event{Kind: "register", Worker: id, Detail: args.DataAddr})
	select {
	case f.registered <- struct{}{}:
	default:
	}
	return nil
}

func (r *clusterRPC) GetJob(args *GetJobArgs, reply *GetJobReply) error {
	f := r.f
	f.mu.Lock()
	j := f.jobs[args.JobID]
	f.mu.Unlock()
	if j == nil {
		return fmt.Errorf("cluster: no active job %d", args.JobID)
	}
	reply.Ref = j.spec.Ref
	reply.MaxTaskAttempts = j.spec.MaxTaskAttempts
	return nil
}

func (r *clusterRPC) Heartbeat(args *HeartbeatArgs, reply *HeartbeatReply) error {
	f := r.f
	f.mu.Lock()
	w := f.workers[args.WorkerID]
	if w == nil || w.dead || f.shutdown {
		// A declared-dead worker must not rejoin placement: its committed
		// outputs were already rescheduled elsewhere.
		reply.Shutdown = true
		f.mu.Unlock()
		return nil
	}
	w.lastBeat = time.Now()
	reply.Drain = w.draining
	reply.Cancel = w.cancels
	w.cancels = nil
	reply.Cleanup = w.cleanups
	w.cleanups = nil
	f.mu.Unlock()
	return nil
}

func (r *clusterRPC) Lease(args *LeaseArgs, reply *LeaseReply) error {
	f := r.f
	timeout := time.NewTimer(leasePollTimeout)
	defer timeout.Stop()
	for {
		f.mu.Lock()
		w := f.workers[args.WorkerID]
		if w == nil || w.dead || f.shutdown {
			reply.Shutdown = true
			f.mu.Unlock()
			return nil
		}
		if w.draining {
			reply.Drain = true
			f.mu.Unlock()
			return nil
		}
		if lease, ok := f.grantLocked(w); ok {
			reply.Granted = true
			reply.Lease = lease
			f.mu.Unlock()
			return nil
		}
		wake := w.wake
		f.mu.Unlock()
		select {
		case <-wake:
		case <-timeout.C:
			reply.Idle = true
			return nil
		}
	}
}

func (r *clusterRPC) Report(args *ReportArgs, reply *ReportReply) error {
	f := r.f
	key := AttemptID{Job: args.JobID, Task: args.Task, Attempt: args.Attempt}
	f.mu.Lock()
	w := f.workers[args.WorkerID]
	pend := f.pending[key]
	if w == nil || pend == nil || pend.worker != args.WorkerID {
		// Stale: a cancelled attempt, or a worker already declared
		// dead. Drop it; the authoritative outcome is elsewhere.
		f.mu.Unlock()
		return nil
	}
	delete(f.pending, key)
	w.outstanding--
	f.running[pend.job.spec.Tenant]--
	w.lastDials = args.PoolDials
	w.lastRPCRetries = args.RPCRetries
	w.lastIntegrity = args.IntegrityFaults
	f.mu.Unlock()
	pend.ch <- args
	return nil
}

func (r *clusterRPC) Drain(args *DrainArgs, reply *DrainReply) error {
	f := r.f
	f.mu.Lock()
	if w := f.workers[args.WorkerID]; w != nil && !w.dead {
		f.markDrainingLocked(w)
	}
	f.mu.Unlock()
	return nil
}

func (r *clusterRPC) Deregister(args *DeregisterArgs, reply *DeregisterReply) error {
	f := r.f
	f.mu.Lock()
	w := f.workers[args.WorkerID]
	if w == nil || w.dead {
		f.mu.Unlock()
		return nil
	}
	f.markDeadLocked(w, "drained")
	f.mu.Unlock()
	f.event(Event{Kind: "worker-drained", Worker: args.WorkerID})
	return nil
}
