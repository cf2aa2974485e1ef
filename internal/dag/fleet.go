package dag

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mr"
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
	// Tenant is the fair-share bucket stage jobs run under (default:
	// the pipeline name).
	Tenant string
	// Weight and Priority are passed through to each stage job's spec,
	// so a pipeline competes for task leases like any other tenant work.
	Weight   int
	Priority int
	// MaxTaskAttempts is passed through to each stage job's spec.
	MaxTaskAttempts int
}

// fleetKept locates a kept stage's output: the finished job whose
// retained workspace holds the handoff files, and where each
// partition landed.
type fleetKept struct {
	jobID    int
	handoffs map[int]cluster.Handoff
	homes    map[int]int
}

// RunStage implements Engine.
func (e *FleetEngine) RunStage(ctx context.Context, run StageRun) (*StageResult, error) {
	if run.Stage.Ref == nil {
		return nil, fmt.Errorf("dag: stage %q has no Ref (fleet engine)", run.Stage.Name)
	}
	tenant := e.Tenant
	if tenant == "" {
		tenant = run.Pipeline
	}
	spec := cluster.JobSpec{
		Ref:             run.Stage.Ref(run.Iter),
		Tenant:          tenant,
		Weight:          e.Weight,
		Priority:        e.Priority,
		MaxTaskAttempts: e.MaxTaskAttempts,
		KeepOutput:      run.Keep,
	}
	if run.Input != nil {
		k, ok := run.Input.kept.(*fleetKept)
		if !ok {
			return nil, fmt.Errorf("dag: stage %q input was not kept on this fleet", run.Stage.Name)
		}
		spec.Homes = k.homes
		spec.Inputs = make([]cluster.StageInput, run.Input.Partitions)
		for p := 0; p < run.Input.Partitions; p++ {
			h, ok := k.handoffs[p]
			if !ok {
				return nil, fmt.Errorf("%w: stage %q has no handoff for partition %d",
					ErrInputLost, run.Stage.From, p)
			}
			seg := h.Seg
			spec.Inputs[p] = cluster.StageInput{Handoff: &seg, Worker: h.Worker}
		}
	} else {
		spec.Inputs = make([]cluster.StageInput, len(run.Inline))
		for i, part := range run.Inline {
			spec.Inputs[i] = cluster.StageInput{Records: part}
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
		sr.kept = &fleetKept{jobID: h.ID(), handoffs: h.Handoffs(), homes: h.Homes()}
	} else {
		sr.Records = res.Output
	}
	return sr, nil
}

// Collect implements Engine: pull each partition's handoff file through
// the fleet's reader, as the fleet pulls any reduce's output.
func (e *FleetEngine) Collect(ctx context.Context, res *StageResult) ([][]mr.Record, error) {
	if res.Records != nil {
		return res.Records, nil
	}
	k, ok := res.kept.(*fleetKept)
	if !ok {
		return nil, fmt.Errorf("dag: result was not kept on this fleet")
	}
	out := make([][]mr.Record, res.Partitions)
	for p := 0; p < res.Partitions; p++ {
		h, ok := k.handoffs[p]
		if !ok {
			return nil, fmt.Errorf("%w: no handoff for partition %d", ErrInputLost, p)
		}
		recs, err := e.Fleet.ReadOutput(ctx, h.Seg)
		if err != nil {
			return nil, err
		}
		out[p] = recs
	}
	return out, nil
}

// Release implements Engine: sweep a kept result's retained job
// workspace across the fleet's workers.
func (e *FleetEngine) Release(res *StageResult) {
	if k, ok := res.kept.(*fleetKept); ok {
		e.Fleet.ReleaseWorkspace(k.jobID)
		res.kept = nil
	}
}
