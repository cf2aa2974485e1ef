package dag

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Config tunes one pipeline run.
type Config struct {
	// Engine executes the stage jobs (InProcess or FleetEngine).
	Engine Engine
	// Tracer receives pipeline and stage spans (nil-safe).
	Tracer *obs.Tracer
}

// StageStat logs one successful stage job run.
type StageStat struct {
	Iter    int           `json:"iter"`
	Stage   string        `json:"stage"`
	Attempt int           `json:"attempt"`
	Kept    bool          `json:"kept"`
	Wall    time.Duration `json:"wall_ns"`
	// ShuffleBytes is the stage job's own shuffle volume (post-codec).
	ShuffleBytes int64 `json:"shuffle_bytes"`
	// MeasuredBytes is the real network transfer on a fleet, 0 in process.
	MeasuredBytes int64 `json:"measured_bytes"`
	OutputRecords int64 `json:"output_records"`
}

// Result is a finished pipeline run.
type Result struct {
	// Iterations actually executed (≤ MaxIters; fewer when Until fired).
	Iterations int
	// Output is the Output stage's final per-partition records.
	Output [][]mr.Record
	// Stats accumulates the committed stage jobs' stats.
	Stats mr.Stats
	// Stages logs every successful stage job run in completion order.
	Stages []StageStat
	// DriverBytes counts record bytes that crossed the driver boundary:
	// terminal and collected outputs shipped back. The pipeline's input
	// never passes through the driver (the first stage's job builds its
	// own splits), while a naive job-per-stage chain pays every stage's
	// full output in and out.
	DriverBytes int64
}

// Run executes the pipeline until Until fires or MaxIters is reached.
// Stage outputs flow engine-side between stages; only terminal stages'
// records visit the driver.
func Run(ctx context.Context, p *Pipeline, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Engine == nil {
		return nil, errors.New("dag: no engine configured")
	}
	maxIters := p.MaxIters
	if maxIters <= 0 {
		maxIters = 1
	}

	span := cfg.Tracer.Start(obs.KindPipeline, p.Name,
		obs.Int("stages", int64(len(p.Stages))), obs.Int("max_iters", int64(maxIters)))

	res := &Result{}
	// mu guards created, outstanding and res.Stages while an
	// iteration's stages run; the runner touches them alone between
	// iterations, after sched.Run has returned.
	var mu sync.Mutex
	outstanding := make(map[*StageResult]struct{})
	release := func(sr *StageResult) {
		if _, held := outstanding[sr]; held {
			delete(outstanding, sr)
			sr.release()
		}
	}
	// Failure backstop: whatever the runner still holds — kept handoffs,
	// retained worker workspaces — is swept on every exit path, so a
	// permanently failed downstream stage cannot leak its upstreams'
	// intermediate files.
	defer func() {
		for sr := range outstanding {
			release(sr)
		}
	}()

	var carry *StageResult
	for iter := 0; iter < maxIters; iter++ {
		iter := iter
		var created []*StageResult
		tasks := make([]sched.Task, 0, len(p.Stages))
		for si := range p.Stages {
			s := &p.Stages[si]
			var deps []string
			if s.From != "" {
				deps = []string{s.From}
			}
			keep := p.kept(s.Name)
			tasks = append(tasks, sched.Task{
				Name: s.Name, Group: "stage", Deps: deps,
				Run: func(ctx context.Context, tc *sched.TaskContext) (any, error) {
					run := StageRun{Pipeline: p.Name, Stage: s, Iter: iter, Keep: keep, Tracer: cfg.Tracer}
					if s.From != "" {
						in, ok := tc.Dep(s.From).(*StageResult)
						if !ok {
							return nil, fmt.Errorf("dag: stage %q missing input from %q", s.Name, s.From)
						}
						run.Input = in
					} else if carry != nil {
						run.Input = carry
					}
					sp := cfg.Tracer.Start(obs.KindStage,
						fmt.Sprintf("%s/%s", p.Name, s.Name),
						obs.Int("iter", int64(iter)), obs.Int("attempt", int64(tc.Attempt)))
					t0 := time.Now()
					sr, err := cfg.Engine.RunStage(ctx, run)
					if err != nil {
						sp.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
						if errors.Is(err, ErrInputLost) && s.From != "" {
							// The upstream stage's retained output is gone;
							// re-running it (and then this stage) is sched's
							// DepLostError protocol, budget-free like any
							// other lost-output re-execution.
							return nil, &sched.DepLostError{Deps: []string{s.From}, Err: err}
						}
						return nil, err
					}
					sp.End(obs.Str("outcome", "success"),
						obs.Int("shuffle_bytes", sr.Stats.ShuffleBytes))
					stat := StageStat{
						Iter: iter, Stage: s.Name, Attempt: tc.Attempt, Kept: keep,
						Wall: time.Since(t0), ShuffleBytes: sr.Stats.ShuffleBytes,
						OutputRecords: sr.Stats.ReduceOutputRecords,
					}
					if sr.Measured != nil {
						stat.MeasuredBytes = sr.Measured.Bytes
					}
					mu.Lock()
					created = append(created, sr)
					outstanding[sr] = struct{}{}
					res.Stages = append(res.Stages, stat)
					mu.Unlock()
					return sr, nil
				},
			})
		}
		// Each stage runs once per iteration (its job retries its own
		// tasks); a stage whose handoff died with its worker is re-run
		// through sched's DepLostError path, up to three times.
		report, err := sched.Run(ctx, tasks, sched.Config{Workers: len(tasks), MaxAttempts: 1, MaxReexecs: 3})
		if err != nil {
			span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
			return nil, err
		}
		res.Iterations = iter + 1

		terminal := make(map[string][][]mr.Record)
		for _, s := range p.Stages {
			sr := report.Value(s.Name).(*StageResult)
			res.Stats.Accumulate(sr.Stats)
			if !p.kept(s.Name) {
				terminal[s.Name] = sr.Records
				res.DriverBytes += partsBytes(sr.Records)
			}
		}

		var newCarry *StageResult
		if p.Carry != "" {
			newCarry = report.Value(p.Carry).(*StageResult)
		}
		done := iter == maxIters-1
		if p.Until != nil {
			stop, err := p.Until(iter, terminal)
			if err != nil {
				span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
				return nil, err
			}
			done = done || stop
		}
		if done {
			if p.Output != "" {
				out, err := report.Value(p.Output).(*StageResult).collect(ctx)
				if err != nil {
					span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
					return nil, err
				}
				res.Output = out
				// A terminal Output stage was counted above; a kept one
				// is collected now. The in-process engine holds a kept
				// stage's Records too, so ask the pipeline, not Records.
				if p.kept(p.Output) {
					res.DriverBytes += partsBytes(out)
				}
			}
			break
		}
		// Iteration k is committed: everything produced this round except
		// the carry is dead, as is iteration k-1's carry (kept alive until
		// now so a lost-input re-run of a From=="" stage could re-read it).
		for _, sr := range created {
			if sr != newCarry {
				release(sr)
			}
		}
		if carry != newCarry {
			release(carry)
		}
		carry = newCarry
	}

	span.End(obs.Str("outcome", "success"),
		obs.Int("iterations", int64(res.Iterations)),
		obs.Int("driver_bytes", res.DriverBytes))
	return res, nil
}

// partsBytes sums key+value bytes across partitioned records.
func partsBytes(parts [][]mr.Record) int64 {
	var n int64
	for _, part := range parts {
		for _, r := range part {
			n += int64(len(r.Key) + len(r.Value))
		}
	}
	return n
}
