// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the synthetic substrates: each experiment is a
// function from a scaled Config to a typed result that renders a
// paper-style table. The same runners back cmd/antibench and the
// repository's benchmarks, and EXPERIMENTS.md records paper-vs-measured
// shapes for each.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/anticombine"
	"repro/internal/costmodel"
	"repro/internal/mr"
	"repro/internal/obs"
)

// Config scales and seeds an experiment run.
type Config struct {
	// Scale multiplies every dataset's default size. 1.0 is the quick
	// benchmark scale; the CLI default is larger.
	Scale float64
	// Seed makes datasets reproducible.
	Seed uint64
	// Reducers is the number of reduce tasks. Defaults to 8 (the
	// paper's 44 scaled to a laptop).
	Reducers int
	// Splits is the number of map tasks. Defaults to 8.
	Splits int
	// Parallelism caps concurrent tasks inside the engine.
	Parallelism int
	// Cluster parameterizes the runtime cost model. Defaults to the
	// paper's testbed.
	Cluster costmodel.Cluster
	// Tracer, when non-nil, receives every job's trace spans (see
	// internal/obs); antibench wires it from -trace.
	Tracer *obs.Tracer
	// Metrics, when non-nil, gets every job's live counters registered;
	// antibench wires it from -metrics.
	Metrics *obs.Registry
	// Digests, when non-nil, records a per-job fingerprint of each run's
	// logical output (output records when collected, byte-level counters,
	// per-partition shuffle flows). TestMapPathExperimentDigests holds
	// the suite's digests to the checked-in golden file.
	Digests *OutputDigests
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 2014
	}
	if c.Reducers <= 0 {
		c.Reducers = 8
	}
	if c.Splits <= 0 {
		c.Splits = 8
	}
	if c.Cluster.Workers == 0 {
		c.Cluster = costmodel.Paper()
	}
	return c
}

// n scales a base dataset size.
func (c Config) n(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 1 {
		return 1
	}
	return n
}

// RunMetrics summarizes one job execution with the quantities the
// paper's evaluation reports.
type RunMetrics struct {
	Name             string
	MapOutputRecords int64
	MapOutputBytes   int64
	ShuffleBytes     int64
	DiskRead         int64
	DiskWrite        int64
	Spills           int64
	SharedSpills     int64
	CPU              time.Duration
	Wall             time.Duration
	Est              costmodel.Estimate
	Extra            map[string]int64
}

// runJob executes a job and gathers metrics plus the modeled runtime.
func runJob(cfg Config, name string, job *mr.Job, splits []mr.Split) (RunMetrics, *mr.Result, error) {
	if cfg.Parallelism > 0 {
		job.Parallelism = cfg.Parallelism
	}
	// Only override when configured, so an experiment can pre-wire its
	// own tracer or registry on the job.
	if cfg.Tracer != nil {
		job.Tracer = cfg.Tracer
	}
	if cfg.Metrics != nil {
		job.Metrics = cfg.Metrics
	}
	res, err := mr.Run(job, splits)
	if err != nil {
		return RunMetrics{}, nil, fmt.Errorf("experiment job %s: %w", name, err)
	}
	cfg.Digests.Record(name, res)
	m, err := metricsFrom(cfg, name, res)
	return m, res, err
}

func metricsFrom(cfg Config, name string, res *mr.Result) (RunMetrics, error) {
	est, err := cfg.Cluster.Estimate(res.Stats, res.ShufflePerPartition)
	if err != nil {
		return RunMetrics{}, err
	}
	s := res.Stats
	return RunMetrics{
		Name:             name,
		MapOutputRecords: s.MapOutputRecords,
		MapOutputBytes:   s.MapOutputBytes,
		ShuffleBytes:     s.ShuffleBytes,
		DiskRead:         s.DiskReadBytes,
		DiskWrite:        s.DiskWriteBytes,
		Spills:           s.Spills,
		SharedSpills:     s.Extra[anticombine.CounterSharedSpills],
		CPU:              s.TotalCPU(),
		Wall:             s.WallTime,
		Est:              est,
		Extra:            s.Extra,
	}, nil
}

// accumulate folds another run's metrics into m (iterative jobs).
func (m *RunMetrics) accumulate(o RunMetrics) {
	m.MapOutputRecords += o.MapOutputRecords
	m.MapOutputBytes += o.MapOutputBytes
	m.ShuffleBytes += o.ShuffleBytes
	m.DiskRead += o.DiskRead
	m.DiskWrite += o.DiskWrite
	m.Spills += o.Spills
	m.SharedSpills += o.SharedSpills
	m.CPU += o.CPU
	m.Wall += o.Wall
	m.Est.CPUTime += o.Est.CPUTime
	m.Est.DiskTime += o.Est.DiskTime
	m.Est.NetTime += o.Est.NetTime
	m.Est.Runtime += o.Est.Runtime
}

// Strategy variants used across the experiments, in the paper's naming.
const (
	VariantOriginal = "Original"
	VariantEager    = "EagerSH"
	VariantLazy     = "LazySH"
	VariantAdaptive = "AdaptiveSH"
)

// wrapVariant applies the named Anti-Combining variant to a job.
func wrapVariant(job *mr.Job, variant string) *mr.Job {
	switch variant {
	case VariantOriginal:
		return job
	case VariantEager:
		return anticombine.Wrap(job, anticombine.Adaptive0())
	case VariantLazy:
		return anticombine.Wrap(job, anticombine.Options{Strategy: anticombine.LazyOnly})
	case VariantAdaptive:
		return anticombine.Wrap(job, anticombine.AdaptiveInf())
	}
	panic("experiments: unknown variant " + variant)
}

// factor renders a/b as the "reduction by a factor of" number the paper
// uses.
func factor(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pct renders (a-b)/b as a percentage delta.
func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a-b) / float64(b)
}
