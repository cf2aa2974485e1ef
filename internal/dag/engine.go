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
	// downstream consumption instead of collecting records (the
	// in-process engine holds every stage's output in memory either way).
	Keep bool
	// Tracer receives the stage job's spans when the engine runs the job
	// in this process (nil-safe).
	Tracer *obs.Tracer
}

// StageResult is one stage job's outcome and the one place its output
// lives: in this process as Records, or, for a kept fleet stage, as
// handoff files on the workers that ran its reduces.
type StageResult struct {
	Stats      mr.Stats
	Partitions int
	// Records is the per-partition output when it is in this process:
	// every in-process stage, and a collected (Keep=false) fleet stage.
	Records [][]mr.Record
	// Measured is the real network transfer when the stage ran on a
	// fleet, nil otherwise.
	Measured *mr.ShuffleMeasurement

	held *fleetOutput // a kept fleet stage's retained output
}

// fleetOutput locates a kept fleet stage's output: the finished job
// whose retained workspace holds the handoff files, and where each
// partition landed.
type fleetOutput struct {
	fleet    *cluster.Fleet
	jobID    int
	handoffs map[int]cluster.Handoff
	homes    map[int]int
}

// handoff returns partition p's handoff, or ErrInputLost.
func (o *fleetOutput) handoff(p int) (cluster.Handoff, error) {
	h, ok := o.handoffs[p]
	if !ok {
		return cluster.Handoff{}, fmt.Errorf("%w: no handoff for partition %d", ErrInputLost, p)
	}
	return h, nil
}

// collect returns the result's per-partition records, pulling a kept
// fleet stage's handoff files through the fleet's reader, as the fleet
// pulls any reduce's output.
func (r *StageResult) collect(ctx context.Context) ([][]mr.Record, error) {
	if r.held == nil {
		return r.Records, nil
	}
	out := make([][]mr.Record, r.Partitions)
	for p := range out {
		h, err := r.held.handoff(p)
		if err != nil {
			return nil, err
		}
		if out[p], err = r.held.fleet.ReadOutput(ctx, h.Seg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// release frees the result's output: in-process records by dropping
// them, a kept fleet stage's retained job workspace by sweeping it
// across the workers. Idempotent.
func (r *StageResult) release() {
	r.Records = nil
	if r.held != nil {
		r.held.fleet.ReleaseWorkspace(r.held.jobID)
		r.held = nil
	}
}

// Engine executes stage jobs. A kept result holds its output until the
// runner releases it.
type Engine interface {
	RunStage(ctx context.Context, run StageRun) (*StageResult, error)
}

// InProcess runs stage jobs through mr.Run in this process, building
// each from its registered job as a fleet worker would. A stage's
// output partitions stay in memory and become the next stage's splits
// directly — no re-spill, no driver round trip — and each stage job's
// workspace files are swept as soon as the job finishes, success or
// failure.
type InProcess struct {
	// FS, when non-nil, hosts every stage job's spill and shuffle files
	// (each under its own pipeline/iteration/stage workspace prefix).
	// When nil each stage job gets a private in-memory FS.
	FS iokit.FS
}

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
		parts := run.Input.Records
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
	return &StageResult{Stats: res.Stats, Partitions: len(res.Output), Records: res.Output}, nil
}

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
