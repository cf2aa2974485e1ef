package serve

import (
	"context"

	"repro/internal/dag"
	"repro/internal/mr"
)

// SubmitPipeline admits one dag pipeline into the same queue as plain
// jobs: it shares the tenant quotas, the journal, the dispatch caps,
// and the status/cancel/output API. Admission builds the registered
// pipeline and every stage's job, so an unknown pipeline, a stage
// naming an unregistered job, or a source stage with no input fails
// fast instead of when the stage runs.
func (s *Server) SubmitPipeline(req SubmitRequest) (JobRecord, error) {
	if err := dag.ValidatePipeline(req.Name, []byte(req.Spec)); err != nil {
		return JobRecord{}, err
	}
	return s.admit(req, KindPipeline)
}

// pipelineRun builds one queued pipeline and returns the function that
// runs it on a fleet engine. The pipeline counts as one running job
// against the tenant's MaxRunning; its stage jobs go to the fleet
// directly under the job record's spec, where task-lease fair share
// arbitrates them against everything else under the same tenant
// weight.
func (s *Server) pipelineRun(ctx context.Context, j *job) (func() (*mr.Result, error), error) {
	p, err := dag.BuildPipeline(j.rec.Name, []byte(j.rec.Spec))
	if err != nil {
		return nil, err
	}
	eng := &dag.FleetEngine{Fleet: s.fleet, Spec: s.jobSpec(j)}
	return func() (*mr.Result, error) {
		res, err := dag.Run(ctx, p, dag.Config{Engine: eng})
		if err != nil {
			return nil, err
		}
		// The pipeline's result takes the same shape as a job's, so
		// Result/output retrieval is kind-agnostic.
		return &mr.Result{Stats: res.Stats, Output: res.Output}, nil
	}, nil
}
