package serve

import (
	"context"
	"time"

	"repro/internal/dag"
	"repro/internal/mr"
)

// SubmitPipeline admits one dag pipeline into the same queue as plain
// jobs: it shares the tenant quotas, the journal, the dispatch caps,
// and the status/cancel/output API. Admission validates the registered
// pipeline for fleet execution (every stage must carry a cluster job
// ref), so unknown pipelines and in-process-only definitions fail fast.
func (s *Server) SubmitPipeline(req SubmitRequest) (JobRecord, error) {
	if err := dag.ValidatePipeline(req.Name, []byte(req.Spec), true); err != nil {
		return JobRecord{}, err
	}
	return s.admit(req, KindPipeline)
}

// startPipelineLocked hands one queued pipeline to a fleet engine. The
// pipeline counts as one running job against the tenant's MaxRunning;
// its stage jobs go to the fleet directly, where task-lease fair share
// arbitrates them against everything else under the same tenant
// weight.
func (s *Server) startPipelineLocked(j *job) {
	p, inputs, err := dag.BuildPipeline(j.rec.Name, []byte(j.rec.Spec))
	if err != nil {
		s.finishLocked(j, nil, err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	tc := s.tenant(j.rec.Tenant)
	eng := &dag.FleetEngine{
		Fleet: s.fleet, Tenant: j.rec.Tenant, Weight: tc.Weight,
		Priority: j.rec.Priority, MaxTaskAttempts: s.cfg.MaxTaskAttempts,
	}

	j.cancel = cancel
	j.rec.State = StateRunning
	j.rec.StartedAt = time.Now()
	s.journalLocked(journalEntry{Op: "state", ID: j.rec.ID, State: StateRunning, Time: j.rec.StartedAt})
	go func() {
		res, rerr := dag.Run(ctx, p, inputs, dag.Config{Engine: eng})
		cancel()
		var out *mr.Result
		if rerr == nil {
			// The pipeline's result takes the same shape as a job's, so
			// Result/output retrieval is kind-agnostic.
			out = &mr.Result{Stats: res.Stats, Output: res.Output}
		}
		s.mu.Lock()
		s.finishLocked(j, out, rerr)
		s.maybeStartLocked()
		s.mu.Unlock()
	}()
}
