// Package dag is the multi-job pipeline runner: it executes a DAG of
// MapReduce stages — optionally iterated to convergence — over one
// engine, feeding each stage's partitioned reduce output to the next
// stage without re-spilling through the driver. In-process, a stage's
// output partitions become the next stage's splits directly; on a
// cluster fleet, reduce output is retained worker-side as handoff
// files and the next stage's map tasks are leased to the workers that
// already hold them, so stage-to-stage data never crosses the network
// (partition homes carry across stages, and a stage that declares
// mr.Job.AlignedInput skips the all-to-all shuffle entirely).
//
// The runner reuses internal/sched per iteration: each stage runs once
// (its job retries its own tasks), and lost-input re-execution (a
// handoff dying with its worker re-runs the producing stage via
// DepLostError) follows the same discipline as lost map output inside
// a job. A stage's output lives in its StageResult and is released as
// soon as nothing downstream needs it — including when a downstream
// stage fails permanently.
package dag

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mr"
)

// ErrInputLost marks a stage whose input data no longer exists (a
// fleet handoff died with its worker). The runner converts it into a
// sched.DepLostError against the producing stage, which re-runs it.
var ErrInputLost = errors.New("dag: stage input lost")

// Stage is one MapReduce job in a pipeline.
type Stage struct {
	// Name identifies the stage within its pipeline.
	Name string
	// From names the upstream stage whose reduce output this stage maps
	// over; "" means the pipeline's input: on iteration 0 the splits the
	// stage's own registered job builds, afterwards the Carry stage's
	// previous output.
	From string
	// Job names the stage's registered cluster job. Both engines build
	// it through cluster.BuildJob, the in-process engine here and a
	// fleet's workers on their side. A stage that reads an upstream
	// stage gets one split per upstream partition, so its job typically
	// sets NumReduceTasks to match (and may set AlignedInput when the
	// stage preserves partitioning); the registered builder's own splits
	// are read only by a From=="" stage on iteration 0.
	Job cluster.JobRef
}

// Pipeline is a DAG of stages, run once or iterated to convergence.
type Pipeline struct {
	Name   string
	Stages []Stage
	// Carry names the stage whose output becomes the next iteration's
	// pipeline input (consumed by From=="" stages). Empty for a
	// single-pass pipeline.
	Carry string
	// Output names the stage whose final-iteration records Run returns.
	Output string
	// MaxIters bounds the iteration count (default 1).
	MaxIters int
	// Until, when non-nil, is evaluated after each iteration over the
	// terminal stages' collected records (stage name → per-partition
	// records); returning true stops the loop before MaxIters.
	Until func(iter int, terminal map[string][][]mr.Record) (bool, error)
}

// kept reports whether a same-iteration stage or the carry edge
// consumes the named stage's output, which the engine then keeps on
// its side; a stage that is not kept is terminal, and its records are
// collected to the driver.
func (p *Pipeline) kept(name string) bool {
	for _, s := range p.Stages {
		if s.From == name {
			return true
		}
	}
	return p.Carry == name
}

// Validate checks the pipeline's shape: unique stage names, From
// edges referencing earlier stages (the stage list is its own
// topological order), and Carry/Output naming real stages.
func (p *Pipeline) Validate() error {
	if p.Name == "" {
		return errors.New("dag: pipeline has no name")
	}
	if len(p.Stages) == 0 {
		return fmt.Errorf("dag: pipeline %q has no stages", p.Name)
	}
	seen := make(map[string]bool, len(p.Stages))
	for _, s := range p.Stages {
		if s.Name == "" {
			return fmt.Errorf("dag: pipeline %q has an unnamed stage", p.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("dag: pipeline %q: duplicate stage %q", p.Name, s.Name)
		}
		if s.From != "" && !seen[s.From] {
			// Earlier-only references keep the stage list a topological
			// order and reject cycles and self-edges in one check.
			return fmt.Errorf("dag: pipeline %q: stage %q reads %q, which is not an earlier stage",
				p.Name, s.Name, s.From)
		}
		seen[s.Name] = true
	}
	if p.Carry != "" && !seen[p.Carry] {
		return fmt.Errorf("dag: pipeline %q: carry stage %q does not exist", p.Name, p.Carry)
	}
	if p.Output != "" && !seen[p.Output] {
		return fmt.Errorf("dag: pipeline %q: output stage %q does not exist", p.Name, p.Output)
	}
	if p.MaxIters > 1 && p.Carry == "" {
		return fmt.Errorf("dag: pipeline %q iterates without a carry stage", p.Name)
	}
	return nil
}
