package dag

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
)

// FleetEngine runs stage jobs on a cluster.Fleet. Kept stages submit
// with KeepOutput: reduce output stays on the workers as handoff
// record files, and the next stage's map leases are pinned
// to the holding workers (with the previous stage's partition homes
// seeding placement), so stage-to-stage data moves zero bytes in the
// steady state. A handoff that died with its worker surfaces as
// ErrInputLost, which the runner converts into a re-run of the
// producing stage.
type FleetEngine struct {
	Fleet *cluster.Fleet
	// Spec is the template every stage job is submitted with (tenant,
	// weight, priority, task attempts), so a pipeline competes for task
	// leases like any other tenant work. The engine sets Ref, Inputs,
	// Homes and KeepOutput per stage; an empty Tenant defaults to the
	// pipeline name.
	Spec cluster.JobSpec
}

// RunStage implements Engine.
func (e *FleetEngine) RunStage(ctx context.Context, run StageRun) (*StageResult, error) {
	spec := e.Spec
	if spec.Tenant == "" {
		spec.Tenant = run.Pipeline
	}
	spec.Ref = run.Stage.Job
	spec.KeepOutput = run.Keep
	// Without an upstream result the stage is an ordinary job: workers
	// rebuild its splits from the registry.
	if run.Input != nil {
		in := run.Input.held
		if in == nil {
			return nil, fmt.Errorf("dag: stage %q input was not kept on this fleet", run.Stage.Name)
		}
		spec.Homes = in.homes
		spec.Inputs = make([]cluster.Handoff, run.Input.Partitions)
		for p := range spec.Inputs {
			h, err := in.handoff(p)
			if err != nil {
				return nil, fmt.Errorf("stage %q: %w", run.Stage.From, err)
			}
			spec.Inputs[p] = h
		}
	}
	h, err := e.Fleet.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	res, err := h.Wait(ctx)
	if err != nil {
		if run.Keep {
			// The failed job's workspace was retained; nothing downstream
			// will ever read it, so sweep it now.
			e.Fleet.ReleaseWorkspace(h.ID())
		}
		if errors.Is(err, cluster.ErrHandoffLost) {
			return nil, fmt.Errorf("%w: %v", ErrInputLost, err)
		}
		return nil, err
	}
	sr := &StageResult{
		Stats:      res.Stats,
		Partitions: len(res.Output),
		Measured:   res.MeasuredShuffle,
	}
	if run.Keep {
		sr.held = &fleetOutput{fleet: e.Fleet, jobID: h.ID(), handoffs: h.Handoffs(), homes: h.Homes()}
	} else {
		sr.Records = res.Output
	}
	return sr, nil
}
