package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iokit"
	"repro/internal/mr"
)

// WorkerOptions configures one worker process (or in-process worker
// goroutine, which tests use to avoid subprocess overhead).
type WorkerOptions struct {
	// Coordinator is the fleet's RPC address.
	Coordinator string
	// Slots is the number of concurrent task slots (default GOMAXPROCS).
	Slots int
	// FS is the worker's task filesystem (default an in-memory FS; a
	// real deployment would hand each worker its own scratch OSFS).
	// Every job's files live under that job's workspace prefix
	// ("j%06d/..."), so many jobs share one FS without collisions and
	// per-job cleanup is a single prefix sweep.
	FS iokit.FS
	// DataAddr is the segment-server bind address (default loopback).
	DataAddr string
	// WrapListener, when non-nil, wraps the segment server's data-plane
	// listener — the chaos harness's injection point for connection
	// drops, stalls, truncations, and bit-flips.
	WrapListener func(net.Listener) net.Listener
	// WireCompression requests Snappy compression on this worker's
	// outbound shuffle fetches. Transparent to job output; it trades
	// CPU on both sides for bytes on the wire, which is the right trade
	// whenever workers are not sharing a loopback.
	WireCompression bool
	// RPCTimeout bounds each control-plane call to the fleet (default
	// 2s). Calls that exceed it are retried with jittered backoff on a
	// fresh connection, so a wedged fleet cannot block a worker forever.
	RPCTimeout time.Duration
	// Drain, when non-nil, triggers a graceful drain when it becomes
	// receivable (typically: closed by a SIGTERM handler). The worker
	// announces the drain to the fleet, takes no further leases,
	// finishes what it is running, deregisters, and returns nil.
	Drain <-chan struct{}
	// DrainTimeout bounds how long a draining worker lets running
	// attempts finish before force-cancelling them; cancelled attempts
	// are handed back to the fleet as transient failures and re-placed
	// elsewhere (default 30s).
	DrainTimeout time.Duration
}

// RunWorker joins the fleet at opts.Coordinator and serves task leases
// — across every job the fleet runs — until told to shut down, told to
// drain, the context is cancelled, or the fleet becomes unreachable.
// Map and reduce output are produced into the worker's own filesystem
// and served via mr.SegmentServer — segments to peers, reduce output to
// the fleet; fetch leases pull peer segments through a shared
// mr.ConnPool. Job build specs are resolved through
// Cluster.GetJob on first contact and cached until the fleet announces
// the job finished (heartbeat Cleanup), at which point the job's
// workspace files are deleted.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	if opts.Slots <= 0 {
		opts.Slots = runtime.GOMAXPROCS(0)
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 30 * time.Second
	}
	fs := opts.FS
	if fs == nil {
		fs = iokit.NewMemFS()
	}
	dataAddr := opts.DataAddr
	if dataAddr == "" {
		dataAddr = "127.0.0.1:0"
	}

	client := newRPCClient(opts.Coordinator, opts.RPCTimeout)
	defer client.Close()

	ln, err := net.Listen("tcp", dataAddr)
	if err != nil {
		return fmt.Errorf("cluster: starting segment server: %w", err)
	}
	if opts.WrapListener != nil {
		ln = opts.WrapListener(ln)
	}
	srv := mr.NewSegmentServerOn(fs, ln, nil)
	defer srv.Close()
	pool := mr.NewConnPool()
	pool.WireCompression = opts.WireCompression
	defer pool.Close()

	var reg RegisterReply
	if err := client.Call(ctx, "Cluster.Register", &RegisterArgs{DataAddr: srv.Addr(), Slots: opts.Slots}, &reg); err != nil {
		return fmt.Errorf("cluster: registering: %w", err)
	}
	hbEvery := reg.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = 50 * time.Millisecond
	}

	w := &worker{
		id: reg.WorkerID,
		fs: fs, pool: pool, srv: srv,
		client:  client,
		jobs:    make(map[int]*workerJob),
		running: make(map[AttemptID]context.CancelFunc),
	}

	// Two cancellation scopes: ctx is the hard one (crash semantics —
	// running attempts die, nothing further is reported); pollCtx stops
	// only lease polling, which is how a drain lets running attempts
	// finish and report while no new work arrives.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pollCtx, stopPolls := context.WithCancel(ctx)
	defer stopPolls()

	var drainOnce sync.Once
	startDrain := func() {
		drainOnce.Do(func() {
			go func() {
				var dr DrainReply
				// Announce first so the fleet re-places queued leases; a
				// failed announcement still drains locally (the fleet will
				// notice via Deregister or missed heartbeats).
				client.Call(ctx, "Cluster.Drain", &DrainArgs{WorkerID: w.id}, &dr)
				stopPolls()
				select {
				case <-time.After(opts.DrainTimeout):
					w.drainKill.Store(true)
					w.cancelAll()
				case <-ctx.Done():
				}
			}()
		})
	}
	if opts.Drain != nil {
		go func() {
			select {
			case <-opts.Drain:
				startDrain()
			case <-ctx.Done():
			}
		}()
	}

	// Heartbeat loop: liveness out; cancellations, drain requests, and
	// finished-job cleanup announcements in. It keeps beating through a
	// drain so the fleet doesn't declare the worker dead while running
	// attempts finish.
	go func() {
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
			case <-ctx.Done():
				return
			}
			var hb HeartbeatReply
			if err := client.Call(ctx, "Cluster.Heartbeat", &HeartbeatArgs{WorkerID: w.id}, &hb); err != nil {
				cancel() // fleet gone (deadline + retries exhausted)
				return
			}
			if hb.Shutdown {
				cancel()
				return
			}
			if hb.Drain {
				startDrain()
			}
			for _, aid := range hb.Cancel {
				w.cancelAttempt(aid)
			}
			for _, jobID := range hb.Cleanup {
				w.cleanupJob(jobID)
			}
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < opts.Slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pollCtx.Err() == nil {
				var lr LeaseReply
				if err := client.Call(pollCtx, "Cluster.Lease", &LeaseArgs{WorkerID: w.id}, &lr); err != nil {
					if pollCtx.Err() != nil && ctx.Err() == nil {
						return // drain stopped polling mid-call
					}
					cancel()
					return
				}
				if lr.Shutdown {
					cancel()
					return
				}
				if lr.Drain {
					startDrain()
					<-pollCtx.Done()
					return
				}
				if !lr.Granted {
					continue
				}
				rep := w.runLease(ctx, lr.Lease)
				if ctx.Err() != nil {
					// A crashed or shut-down worker never reports: the attempt
					// died with the process, and the fleet must discover that
					// through missed heartbeats, not a parting message a real
					// crash could not have sent.
					cancel()
					return
				}
				if err := w.report(ctx, rep); err != nil {
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()

	// A drained worker (polls stopped, process alive) leaves cleanly:
	// its departure is a deliberate deregistration, not a crash.
	if ctx.Err() == nil {
		var dr DeregisterReply
		client.Call(ctx, "Cluster.Deregister", &DeregisterArgs{WorkerID: w.id}, &dr)
	}
	return nil
}

// workerJob is one job's cached build on a worker.
type workerJob struct {
	job    *mr.Job
	splits []mr.Split
}

type worker struct {
	id        int
	fs        iokit.FS
	pool      *mr.ConnPool
	srv       *mr.SegmentServer
	client    *rpcClient
	integrity atomic.Int64 // fetches failed by checksum, across attempts
	drainKill atomic.Bool  // drain timeout fired; cancellations are hand-backs

	mu      sync.Mutex
	jobs    map[int]*workerJob
	running map[AttemptID]context.CancelFunc
}

// getJob resolves a lease's JobID into the job's build, caching it for
// the job's lifetime on this worker. The build is rooted in the job's
// workspace ("j%06d") so concurrent jobs' files stay disjoint.
func (w *worker) getJob(ctx context.Context, id int) (*workerJob, error) {
	w.mu.Lock()
	wj := w.jobs[id]
	w.mu.Unlock()
	if wj != nil {
		return wj, nil
	}
	var gr GetJobReply
	if err := w.client.Call(ctx, "Cluster.GetJob", &GetJobArgs{WorkerID: w.id, JobID: id}, &gr); err != nil {
		return nil, fmt.Errorf("cluster: resolving job %d: %w", id, err)
	}
	job, splits, err := BuildJob(gr.Ref)
	if err != nil {
		return nil, fmt.Errorf("cluster: building job %d: %w", id, err)
	}
	// The attempt budget shapes task behavior (reduce merges keep their
	// inputs when retries are possible); mirror the fleet's.
	job.MaxTaskAttempts = gr.MaxTaskAttempts
	job.Workspace = jobWorkspace(id)
	wj = &workerJob{job: job, splits: splits}
	w.mu.Lock()
	if have := w.jobs[id]; have != nil {
		wj = have // lost a build race; keep the first
	} else {
		w.jobs[id] = wj
	}
	w.mu.Unlock()
	return wj, nil
}

// jobWorkspace is the file-name prefix under which all of a job's
// files live on every worker.
func jobWorkspace(id int) string { return fmt.Sprintf("j%06d", id) }

// cleanupJob retires a finished job: cancel any straggling attempts
// (their leases were already dropped fleet-side), drop the cached
// build, then sweep the job's workspace files once those attempts have
// actually stopped — a cancelled attempt may still be mid-write, and a
// sweep racing it would leave orphans. The wait happens off the
// heartbeat loop so liveness is never blocked on a slow attempt.
func (w *worker) cleanupJob(id int) {
	w.mu.Lock()
	for aid, cancel := range w.running {
		if aid.Job == id {
			cancel()
		}
	}
	delete(w.jobs, id)
	w.mu.Unlock()
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			w.mu.Lock()
			busy := false
			for aid := range w.running {
				if aid.Job == id {
					busy = true
					break
				}
			}
			w.mu.Unlock()
			if !busy || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		prefix := jobWorkspace(id) + "/"
		names, err := w.fs.List()
		if err != nil {
			return
		}
		for _, name := range names {
			if strings.HasPrefix(name, prefix) {
				w.fs.Remove(name)
			}
		}
	}()
}

// report delivers an attempt report, stamping the worker's cumulative
// gauges last so the fleet's view is current: RPC retries spent
// (including on this report's predecessors) and checksum-failed
// fetches, which live on failed attempts whose stats are discarded.
func (w *worker) report(ctx context.Context, rep *ReportArgs) error {
	rep.RPCRetries = w.client.Retries()
	rep.IntegrityFaults = w.integrity.Load()
	var rr ReportReply
	return w.client.Call(ctx, "Cluster.Report", rep, &rr)
}

func (w *worker) cancelAttempt(aid AttemptID) {
	w.mu.Lock()
	cancel := w.running[aid]
	w.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// cancelAll revokes every running attempt (drain timeout).
func (w *worker) cancelAll() {
	w.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(w.running))
	for _, cancel := range w.running {
		cancels = append(cancels, cancel)
	}
	w.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

// runLease executes one task attempt and builds its report. All
// failures are reported rather than returned: the fleet owns retry
// policy.
func (w *worker) runLease(ctx context.Context, l TaskLease) *ReportArgs {
	rep := &ReportArgs{WorkerID: w.id, JobID: l.JobID, Task: l.Task, Attempt: l.Attempt}
	wj, err := w.getJob(ctx, l.JobID)
	if err != nil {
		rep.Errmsg = err.Error()
		rep.Transient = ctx.Err() == nil
		return rep
	}
	aid := AttemptID{Job: l.JobID, Task: l.Task, Attempt: l.Attempt}
	actx, acancel := context.WithCancel(ctx)
	w.mu.Lock()
	w.running[aid] = acancel
	w.mu.Unlock()
	defer func() {
		acancel()
		w.mu.Lock()
		delete(w.running, aid)
		w.mu.Unlock()
	}()

	// Fresh counters and disk meter per attempt: the report's Stats is a
	// clean delta, and only committed attempts are summed job-side.
	counters := &mr.Counters{}
	meter := &iokit.Meter{}
	afs := iokit.Metered(w.fs, meter)
	counters.SetDiskMeter(meter)

	t0 := time.Now()
	err = nil
	switch l.Group {
	case mr.TaskGroupMap:
		var split mr.Split
		if l.Input != nil {
			// A stage reading an upstream stage names its handoff on the
			// lease instead of using registry-built splits.
			split, err = w.stageSplit(actx, l.Input, rep)
			if err != nil {
				break
			}
		} else if l.MapTask < 0 || l.MapTask >= len(wj.splits) {
			err = fmt.Errorf("cluster: job %d has no split %d", l.JobID, l.MapTask)
			break
		} else {
			split = wj.splits[l.MapTask]
		}
		rep.Segs, err = mr.ExecMapTask(actx, wj.job, afs, counters, l.MapTask, l.Attempt, split)
		for i := range rep.Segs {
			rep.Segs[i].Addr = w.srv.Addr() // peers fetch them from here
		}

	case mr.TaskGroupFetch:
		err = w.runFetch(actx, wj, l, rep, counters)

	case mr.TaskGroupReduce:
		for i, s := range l.Locals {
			if _, serr := w.fs.Size(s.File); serr != nil {
				rep.LostDeps = appendUnique(rep.LostDeps, l.LocalTasks[i])
			}
		}
		if len(rep.LostDeps) > 0 {
			rep.Errmsg = fmt.Sprintf("cluster: %d reduce input segments missing locally", len(rep.LostDeps))
			return rep
		}
		var recs []mr.Record
		recs, err = mr.ExecReduceTask(actx, wj.job, afs, counters, l.Partition, l.Attempt, l.Locals)
		if err != nil {
			break
		}
		// The output leaves as map output does: an attempt-scoped file
		// the segment server serves, named in the report. Like a fetch
		// copy it is transport, not task I/O, so it is written unmetered.
		name := fmt.Sprintf("%s/handoff/p%04d.a%d", wj.job.Workspace, l.Partition, l.Attempt)
		if err = mr.WriteRecordFile(w.fs, name, recs); err != nil {
			break
		}
		rep.Handoff = &mr.SegmentInfo{
			Addr: w.srv.Addr(), File: name, Partition: l.Partition, Records: int64(len(recs)),
		}
	}

	rep.DurNs = time.Since(t0).Nanoseconds()
	rep.Stats = counters.Snapshot()
	rep.PoolDials = w.pool.Dials()
	if err != nil {
		rep.Errmsg = err.Error()
		// Cancelled attempts are not worth retrying (the fleet revoked
		// them) — unless the cancellation was this worker's own drain
		// timeout handing the attempt back for another worker to run.
		rep.Transient = actx.Err() == nil || w.drainKill.Load()
	}
	return rep
}

// stageSplit materializes a stage map lease's handoff as an mr.Split:
// the local record file when this worker holds it (the common, pinned
// case — zero bytes moved between stages), and otherwise a copy pulled
// from the holder's segment server into memory, as the fleet pulls
// reduce output. A failed pull marks the holder unreachable, feeding
// the fleet's liveness evidence.
func (w *worker) stageSplit(ctx context.Context, h *mr.SegmentInfo, rep *ReportArgs) (mr.Split, error) {
	if _, err := w.fs.Size(h.File); err == nil {
		return &mr.RecordFileSplit{FS: w.fs, Name: h.File}, nil
	}
	rc, _, err := w.pool.Fetch(ctx, h.Addr, h.File)
	var recs []mr.Record
	if err == nil {
		recs, err = mr.CollectRecords(rc)
		rc.Close()
	}
	if err != nil {
		if errors.Is(err, mr.ErrIntegrity) {
			w.integrity.Add(1)
		}
		rep.Unreachable = appendUnique(rep.Unreachable, h.Addr)
		return nil, fmt.Errorf("cluster: pulling handoff %s from %s: %w", h.File, h.Addr, err)
	}
	return &mr.MemSplit{Recs: recs}, nil
}

// runFetch runs a fetch lease through mr.ExecFetchTask, pulling the
// sources from their holders' segment servers through the shared
// ConnPool. What stays here is what only a fleet has: a failed source's
// address is reported as unreachable (evidence toward declaring that
// worker dead), and a checksum failure bumps the worker's gauge, since
// the failed attempt's own stats are discarded. The copies land in the
// unmetered filesystem: their bytes are the shuffle flow, not task I/O.
func (w *worker) runFetch(ctx context.Context, wj *workerJob, l TaskLease, rep *ReportArgs, counters *mr.Counters) error {
	got, err := mr.ExecFetchTask(ctx, wj.job, w.fs, counters, l.Partition, l.MapIndex, l.Attempt, l.Sources,
		func(ctx context.Context, src mr.SegmentInfo) (io.ReadCloser, int64, error) {
			return w.pool.Fetch(ctx, src.Addr, src.File)
		})
	if err != nil {
		var fe *mr.FetchError
		if errors.As(err, &fe) {
			rep.Unreachable = appendUnique(rep.Unreachable, fe.Source.Addr)
		}
		if errors.Is(err, mr.ErrIntegrity) {
			w.integrity.Add(1)
		}
		return err
	}
	rep.Segs = got.Segs
	rep.FlowBytes = got.Bytes
	rep.FetchNs = got.Time.Nanoseconds()
	rep.Fetches = len(l.Sources)
	return nil
}

func appendUnique(list []string, s string) []string {
	for _, have := range list {
		if have == s {
			return list
		}
	}
	return append(list, s)
}
