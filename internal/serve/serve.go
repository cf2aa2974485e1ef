// Package serve is the long-lived multi-tenant job service over one
// shared worker fleet (the antserve daemon's core). It owns a
// cluster.Fleet, admits jobs through per-tenant quotas into a
// persistent-enough queue (a JSONL journal replayed on restart), runs
// admitted jobs concurrently over the fleet — per-tenant weighted fair
// share arbitrates task leases between them — and exposes the whole
// thing over an HTTP/JSON API (submission, status, cancellation, SSE
// progress streams, worker listing and drain).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/mr"
	"repro/internal/obs"
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateCanceled  = "canceled"
)

// TenantConfig is one tenant's admission and scheduling policy.
type TenantConfig struct {
	// Weight is the tenant's fair-share weight at the task-lease level
	// (default 1): under contention a weight-2 tenant sustains twice the
	// running leases of a weight-1 tenant.
	Weight int `json:"weight"`
	// Priority is the default job priority for the tenant's submissions;
	// it breaks fair-share ties, higher first.
	Priority int `json:"priority"`
	// MaxRunning caps the tenant's concurrently running jobs (default 4).
	MaxRunning int `json:"max_running"`
	// MaxQueued caps the tenant's queued jobs; submissions beyond it are
	// rejected with ErrQuota — HTTP 429 (default 32).
	MaxQueued int `json:"max_queued"`
}

func (t TenantConfig) normalized() TenantConfig {
	if t.Weight <= 0 {
		t.Weight = 1
	}
	if t.MaxRunning <= 0 {
		t.MaxRunning = 4
	}
	if t.MaxQueued <= 0 {
		t.MaxQueued = 32
	}
	return t
}

// Config tunes a Server.
type Config struct {
	// Fleet configures the worker fleet the server owns; workers join at
	// the fleet's RPC address (Server.FleetAddr).
	Fleet cluster.FleetConfig
	// Tenants maps tenant names to their policies; tenants not listed
	// get the zero TenantConfig's defaults (weight 1, 4 running, 32
	// queued).
	Tenants map[string]TenantConfig
	// MaxRunningJobs caps concurrently running jobs across all tenants
	// (default 16).
	MaxRunningJobs int
	// MaxTaskAttempts is each job's per-task attempt budget (default 4).
	MaxTaskAttempts int
	// JournalPath, when non-empty, makes the queue persistent-enough: a
	// JSONL journal of submissions and state transitions, replayed on
	// startup (jobs caught mid-run are re-queued).
	//
	// Durability contract: terminal state transitions (succeeded,
	// failed, canceled) are fsynced before the write is considered
	// done — a job observed finished stays finished across a crash.
	// Submissions and non-terminal transitions are appended without
	// sync: a crash may lose the tail, which at worst forgets a
	// just-submitted job or re-queues a job caught mid-run, both safe
	// (builders are deterministic, results are never persisted). The
	// same crash can tear the final line mid-append; replay tolerates
	// exactly that — a torn *last* line is logged and truncated away,
	// while corruption earlier in the file still fails startup.
	JournalPath string
	// Registry receives the server's and fleet's metric sources (one is
	// created if nil); /metrics serves its snapshot.
	Registry *obs.Registry
}

func (c Config) normalized() Config {
	if c.MaxRunningJobs <= 0 {
		c.MaxRunningJobs = 16
	}
	if c.MaxTaskAttempts <= 0 {
		c.MaxTaskAttempts = 4
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// ErrQuota is returned (and mapped to HTTP 429) when a submission
// exceeds its tenant's queue quota.
var ErrQuota = errors.New("serve: tenant queue quota exceeded")

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("serve: no such job")

// KindPipeline marks a JobRecord that runs a registered dag pipeline
// (a DAG of stage jobs over the fleet) rather than a single job. The
// zero Kind is a plain job.
const KindPipeline = "pipeline"

// JobRecord is one job's externally visible state.
type JobRecord struct {
	ID     int    `json:"id"`
	Tenant string `json:"tenant"`
	// Kind distinguishes plain jobs ("") from pipelines ("pipeline").
	Kind string `json:"kind,omitempty"`
	// Name and Spec form the cluster.JobRef rebuilt by every worker —
	// or, for pipelines, the dag registry reference. Spec must be JSON
	// (every registered job in this repo uses JSON specs), which keeps
	// the journal and API human-readable.
	Name        string           `json:"name"`
	Spec        json.RawMessage  `json:"spec,omitempty"`
	Priority    int              `json:"priority"`
	State       string           `json:"state"`
	Error       string           `json:"error,omitempty"`
	SubmittedAt time.Time        `json:"submitted_at"`
	StartedAt   time.Time        `json:"started_at,omitempty"`
	FinishedAt  time.Time        `json:"finished_at,omitempty"`
	Progress    cluster.Progress `json:"progress"`
}

// SubmitRequest is one job submission.
type SubmitRequest struct {
	Name     string          `json:"name"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	Tenant   string          `json:"tenant,omitempty"`
	Priority *int            `json:"priority,omitempty"` // default: tenant's
}

// job is a JobRecord plus its runtime attachments.
type job struct {
	rec    JobRecord
	cancel context.CancelFunc // non-nil while running
	handle *cluster.JobHandle // non-nil once started
	res    *mr.Result         // non-nil once succeeded
	done   chan struct{}      // closed on any terminal state
}

// Server is the job service: admission, queueing, dispatch over one
// fleet, and result retention.
type Server struct {
	cfg   Config
	fleet *cluster.Fleet

	mu      sync.Mutex
	jobs    map[int]*job
	nextID  int
	journal *os.File
	closed  bool

	unreg []func()
}

// New builds a server: fleet listener up (workers may join
// immediately), journal replayed, metric sources registered, and any
// replayed queue dispatching.
func New(cfg Config) (*Server, error) {
	cfg = cfg.normalized()
	fleet, err := cluster.NewFleet(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, fleet: fleet, jobs: make(map[int]*job)}
	if cfg.JournalPath != "" {
		if err := s.replayJournal(); err != nil {
			fleet.Close()
			return nil, err
		}
		f, err := os.OpenFile(cfg.JournalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fleet.Close()
			return nil, err
		}
		s.journal = f
		// Converge the journal: anything re-queued by replay is recorded
		// as queued again, so a second replay agrees with memory.
		s.mu.Lock()
		for _, j := range s.jobs {
			if j.rec.State == StateQueued {
				s.journalLocked(journalEntry{Op: "state", ID: j.rec.ID, State: StateQueued, Time: time.Now()})
			}
		}
		s.mu.Unlock()
	}
	s.unreg = append(s.unreg,
		cfg.Registry.Register("fleet", fleet.Metrics),
		cfg.Registry.Register("serve", s.metrics),
	)
	s.mu.Lock()
	s.maybeStartLocked()
	s.mu.Unlock()
	return s, nil
}

// FleetAddr is the fleet RPC address workers join at.
func (s *Server) FleetAddr() string { return s.fleet.Addr() }

// Fleet exposes the underlying fleet (worker listing, drain).
func (s *Server) Fleet() *cluster.Fleet { return s.fleet }

// Registry is the server's metric registry (serves /metrics).
func (s *Server) Registry() *obs.Registry { return s.cfg.Registry }

// Close cancels running jobs, shuts the fleet down, and closes the
// journal. Queued jobs stay queued in the journal for the next run.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	var cancels []context.CancelFunc
	var waits []chan struct{}
	for _, j := range s.jobs {
		if j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
		if j.rec.State == StateRunning {
			waits = append(waits, j.done)
		}
	}
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	for _, done := range waits {
		<-done
	}
	for _, u := range s.unreg {
		u()
	}
	err := s.fleet.Close()
	s.mu.Lock()
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	s.mu.Unlock()
	return err
}

// tenant resolves a tenant's policy.
func (s *Server) tenant(name string) TenantConfig {
	return s.cfg.Tenants[name].normalized()
}

// Submit admits one job into the queue (or rejects it: unknown
// registry jobs fail fast with the build error, tenants over their
// queue quota get ErrQuota).
func (s *Server) Submit(req SubmitRequest) (JobRecord, error) {
	ref := cluster.JobRef{Name: req.Name, Spec: []byte(req.Spec)}
	if err := cluster.ValidateJob(ref); err != nil {
		return JobRecord{}, err
	}
	return s.admit(req, "")
}

// admit runs the shared quota/queue path for jobs and pipelines; the
// caller has already validated the registry reference.
func (s *Server) admit(req SubmitRequest, kind string) (JobRecord, error) {
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	tc := s.tenant(req.Tenant)
	prio := tc.Priority
	if req.Priority != nil {
		prio = *req.Priority
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobRecord{}, errors.New("serve: server is shutting down")
	}
	queued := 0
	for _, j := range s.jobs {
		if j.rec.Tenant == req.Tenant && j.rec.State == StateQueued {
			queued++
		}
	}
	if queued >= tc.MaxQueued {
		return JobRecord{}, fmt.Errorf("%w: tenant %q has %d queued (max %d)",
			ErrQuota, req.Tenant, queued, tc.MaxQueued)
	}
	id := s.nextID
	s.nextID++
	j := &job{
		rec: JobRecord{
			ID: id, Tenant: req.Tenant, Kind: kind, Name: req.Name, Spec: req.Spec,
			Priority: prio, State: StateQueued, SubmittedAt: time.Now(),
		},
		done: make(chan struct{}),
	}
	s.jobs[id] = j
	s.journalLocked(journalEntry{Op: "submit", Job: &j.rec, Time: j.rec.SubmittedAt})
	s.maybeStartLocked()
	return j.rec, nil
}

// maybeStartLocked dispatches queued jobs while capacity allows:
// global running below MaxRunningJobs, tenant running below its
// MaxRunning; among eligible jobs, highest priority first, then FIFO.
func (s *Server) maybeStartLocked() {
	if s.closed {
		return
	}
	for {
		running := 0
		perTenant := make(map[string]int)
		for _, j := range s.jobs {
			if j.rec.State == StateRunning {
				running++
				perTenant[j.rec.Tenant]++
			}
		}
		if running >= s.cfg.MaxRunningJobs {
			return
		}
		var pick *job
		for _, j := range s.jobs {
			if j.rec.State != StateQueued {
				continue
			}
			if perTenant[j.rec.Tenant] >= s.tenant(j.rec.Tenant).MaxRunning {
				continue
			}
			if pick == nil || j.rec.Priority > pick.rec.Priority ||
				(j.rec.Priority == pick.rec.Priority && j.rec.ID < pick.rec.ID) {
				pick = j
			}
		}
		if pick == nil {
			return
		}
		s.startLocked(pick)
	}
}

// jobSpec is the fleet job spec a job record runs under: its tenant
// and the tenant's weight, its priority, and the server's task
// attempt budget. A plain job adds its Ref; a pipeline's engine uses
// it as every stage job's template.
func (s *Server) jobSpec(j *job) cluster.JobSpec {
	return cluster.JobSpec{
		Tenant:          j.rec.Tenant,
		Weight:          s.tenant(j.rec.Tenant).Weight,
		Priority:        j.rec.Priority,
		MaxTaskAttempts: s.cfg.MaxTaskAttempts,
	}
}

// startLocked hands one queued job or pipeline to the fleet and
// finishes it when it returns.
func (s *Server) startLocked(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	var run func() (*mr.Result, error)
	var err error
	if j.rec.Kind == KindPipeline {
		run, err = s.pipelineRun(ctx, j)
	} else {
		spec := s.jobSpec(j)
		spec.Ref = cluster.JobRef{Name: j.rec.Name, Spec: []byte(j.rec.Spec)}
		var h *cluster.JobHandle
		if h, err = s.fleet.Submit(ctx, spec); err == nil {
			j.handle = h
			run = func() (*mr.Result, error) { return h.Wait(context.Background()) }
		}
	}
	if err != nil {
		cancel()
		s.finishLocked(j, nil, err)
		return
	}
	j.cancel = cancel
	j.rec.State = StateRunning
	j.rec.StartedAt = time.Now()
	s.journalLocked(journalEntry{Op: "state", ID: j.rec.ID, State: StateRunning, Time: j.rec.StartedAt})
	go func() {
		res, rerr := run()
		cancel()
		s.mu.Lock()
		s.finishLocked(j, res, rerr)
		s.maybeStartLocked()
		s.mu.Unlock()
	}()
}

// finishLocked moves a job to its terminal state. Terminal states are
// final: a second call (a cancel racing the job's own completion, a
// replayed journal already holding the outcome) is a no-op, so j.done
// closes exactly once and the first outcome sticks.
func (s *Server) finishLocked(j *job, res *mr.Result, err error) {
	if isTerminal(j.rec.State) {
		return
	}
	j.cancel = nil
	j.rec.FinishedAt = time.Now()
	switch {
	case err == nil:
		j.rec.State = StateSucceeded
		j.res = res
	case errors.Is(err, context.Canceled):
		j.rec.State = StateCanceled
	default:
		j.rec.State = StateFailed
		j.rec.Error = err.Error()
	}
	s.journalLocked(journalEntry{
		Op: "state", ID: j.rec.ID, State: j.rec.State, Error: j.rec.Error, Time: j.rec.FinishedAt,
	})
	close(j.done)
}

// Cancel cancels a queued or running job; terminal jobs are left as
// they ended (no error: cancellation is idempotent).
func (s *Server) Cancel(id int) (JobRecord, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return JobRecord{}, ErrNotFound
	}
	switch j.rec.State {
	case StateQueued:
		s.finishLocked(j, nil, context.Canceled)
		rec := j.rec
		s.mu.Unlock()
		return rec, nil
	case StateRunning:
		cancel := j.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		<-j.done
		return s.Get(id)
	default:
		rec := j.rec
		s.mu.Unlock()
		return rec, nil
	}
}

func (s *Server) get(id int) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Get returns one job's record, with live progress for running jobs.
func (s *Server) Get(id int) (JobRecord, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return JobRecord{}, ErrNotFound
	}
	rec := j.rec
	h := j.handle
	s.mu.Unlock()
	if h != nil {
		rec.Progress = h.Progress()
	}
	return rec, nil
}

// List returns all jobs (optionally one tenant's), newest first.
func (s *Server) List(tenant string) []JobRecord {
	s.mu.Lock()
	out := make([]JobRecord, 0, len(s.jobs))
	handles := make([]*cluster.JobHandle, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant != "" && j.rec.Tenant != tenant {
			continue
		}
		out = append(out, j.rec)
		handles = append(handles, j.handle)
	}
	s.mu.Unlock()
	for i, h := range handles {
		if h != nil {
			out[i].Progress = h.Progress()
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// Wait blocks until the job reaches a terminal state.
func (s *Server) Wait(ctx context.Context, id int) (JobRecord, error) {
	j := s.get(id)
	if j == nil {
		return JobRecord{}, ErrNotFound
	}
	select {
	case <-j.done:
		return s.Get(id)
	case <-ctx.Done():
		return JobRecord{}, ctx.Err()
	}
}

// Result returns a succeeded job's full result (nil error only when
// the job succeeded).
func (s *Server) Result(id int) (*mr.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	if j.rec.State != StateSucceeded {
		return nil, fmt.Errorf("serve: job %d is %s, not %s", id, j.rec.State, StateSucceeded)
	}
	if j.res == nil {
		// Succeeded before a restart: the journal keeps the record, not
		// the output.
		return nil, fmt.Errorf("serve: job %d's result was not retained across a restart", id)
	}
	return j.res, nil
}

// metrics is the server's obs.Source.
func (s *Server) metrics() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := map[string]int64{
		"jobs_queued": 0, "jobs_running": 0, "jobs_succeeded": 0,
		"jobs_failed": 0, "jobs_canceled": 0,
		"jobs_total": int64(len(s.jobs)),
	}
	for _, j := range s.jobs {
		m["jobs_"+j.rec.State]++
	}
	return m
}
