package dag

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/obs"
)

// StageRun describes one stage job execution to an engine.
type StageRun struct {
	Pipeline string
	Stage    *Stage
	Iter     int
	// Input is the upstream stage's result; nil when the stage reads
	// the splits its own registered job builds.
	Input *StageResult
	// Keep asks the engine to retain the stage's partitioned output for
	// downstream consumption instead of collecting records.
	Keep bool
	// Tracer receives the stage job's spans when the engine runs the job
	// in this process (nil-safe).
	Tracer *obs.Tracer
}

// StageResult is one stage job's outcome. Kept results hold their
// output engine-side (in-memory partitions in process, worker handoff
// files on a fleet); collected results carry Records.
type StageResult struct {
	Stats      mr.Stats
	Partitions int
	// Records is the per-partition output when the stage was collected
	// (Keep=false); nil for kept results.
	Records [][]mr.Record
	// Measured is the real network transfer when the stage ran on a
	// fleet, nil otherwise.
	Measured *mr.ShuffleMeasurement

	kept any // engine-private handle for retained output
}

// Engine executes stage jobs. Implementations must make Release
// idempotent: the runner releases every result exactly once on the
// happy path but also sweeps everything it still holds on failure.
type Engine interface {
	RunStage(ctx context.Context, run StageRun) (*StageResult, error)
	// Collect materializes a kept result's records (used when the
	// pipeline's Output stage is also consumed downstream).
	Collect(ctx context.Context, res *StageResult) ([][]mr.Record, error)
	// Release frees a result's retained output (worker workspaces,
	// intermediate files). No-op for collected results.
	Release(res *StageResult)
}

// InProcess runs stage jobs through mr.Run in this process, building
// each from its registered job as a fleet worker would. A kept
// stage's output partitions stay in memory and become the next stage's
// splits directly — no re-spill, no driver round trip — and each stage
// job's workspace files are swept as soon as the job finishes, success
// or failure.
type InProcess struct {
	// FS, when non-nil, hosts every stage job's spill and shuffle files
	// (each under its own pipeline/iteration/stage workspace prefix).
	// When nil each stage job gets a private in-memory FS.
	FS iokit.FS
}

type inProcKept struct{ parts [][]mr.Record }

// RunStage implements Engine.
func (e *InProcess) RunStage(ctx context.Context, run StageRun) (*StageResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	job, splits, err := cluster.BuildJob(run.Stage.Job)
	if err != nil {
		return nil, err
	}
	job.Workspace = stageWorkspace(run.Pipeline, run.Iter, run.Stage.Name)
	job.Tracer = run.Tracer
	if e.FS != nil {
		job.FS = e.FS
		// The stage's intermediate files (spills, shuffle segments) are
		// dead the moment the run returns — its output lives in memory —
		// so sweep them now whether the job succeeded or not.
		defer sweepPrefix(e.FS, job.Workspace+"/")
	}
	if run.Input != nil {
		parts := run.Input.parts()
		if parts == nil {
			return nil, fmt.Errorf("%w: stage %q input has no in-process partitions", ErrInputLost, run.Stage.Name)
		}
		splits = make([]mr.Split, len(parts))
		for i := range parts {
			splits[i] = &mr.MemSplit{Recs: parts[i]}
		}
	} else if len(splits) == 0 {
		return nil, fmt.Errorf("dag: stage %q: job %q built zero splits", run.Stage.Name, run.Stage.Job.Name)
	}
	res, err := mr.Run(job, splits)
	if err != nil {
		return nil, err
	}
	sr := &StageResult{Stats: res.Stats, Partitions: len(res.Output)}
	if run.Keep {
		sr.kept = &inProcKept{parts: res.Output}
	} else {
		sr.Records = res.Output
	}
	return sr, nil
}

// parts returns a result's per-partition records when they live in
// this process (collected, or kept by the in-process engine).
func (r *StageResult) parts() [][]mr.Record {
	if r.Records != nil {
		return r.Records
	}
	if k, ok := r.kept.(*inProcKept); ok {
		return k.parts
	}
	return nil
}

// Collect implements Engine.
func (e *InProcess) Collect(ctx context.Context, res *StageResult) ([][]mr.Record, error) {
	if p := res.parts(); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("dag: result has no in-process partitions")
}

// Release implements Engine: kept output is memory, freed by dropping
// the reference; workspace files were swept at RunStage time.
func (e *InProcess) Release(res *StageResult) { res.kept = nil }

// stageWorkspace names one stage job's file namespace.
func stageWorkspace(pipeline string, iter int, stage string) string {
	return fmt.Sprintf("%s/i%03d/%s", pipeline, iter, stage)
}

// sweepPrefix deletes every file under prefix, ignoring errors (the
// files may never have been created).
func sweepPrefix(fs iokit.FS, prefix string) {
	names, err := fs.List()
	if err != nil {
		return
	}
	for _, name := range names {
		if strings.HasPrefix(name, prefix) {
			fs.Remove(name)
		}
	}
}
