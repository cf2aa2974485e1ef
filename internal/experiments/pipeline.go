package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/dag"
	"repro/internal/mr"
	"repro/internal/workloads/pagerank"
)

// PipelineHandoffResult is extension experiment X7: iterative PageRank
// as a 3-stage-per-iteration dag pipeline versus the same three jobs
// chained through the driver, one Submit per job per iteration. The
// chained baseline re-materializes every stage's full output in the
// driver and re-feeds it as the next job's splits — the per-iteration
// re-spill a pipeline exists to delete. The dag runner instead hands
// each stage's partitions to the next stage in place (in process:
// memory partitions become splits; on a fleet: worker-side handoff
// files plus pinned leases), so only the norm stage's single delta
// record and the final ranks ever cross the driver boundary. Both
// executions must produce byte-identical final ranks.
type PipelineHandoffResult struct {
	// Rows holds the chained baseline and the pipeline run.
	Rows []PipelineHandoffRow
	// Iterations both executions ran (they must agree).
	Iterations int
	// DriverSavedFactor is chained driver bytes over pipeline driver
	// bytes — how much re-spill traffic the handoff deletes.
	DriverSavedFactor float64
	// WallSavedPct is the wall-clock reduction of the pipeline run
	// relative to the chained baseline, in percent.
	WallSavedPct float64
	// Identical is whether the final rank partitions match byte-for-byte.
	Identical bool
}

// PipelineHandoffRow is one execution strategy's measured totals.
type PipelineHandoffRow struct {
	Name string
	// DriverBytes is the record volume that crossed the driver boundary
	// (inputs fed in, stage outputs collected back; the pipeline's input
	// is built by its first stage's job and never crosses it).
	DriverBytes int64
	// ShuffleBytes is the jobs' own total shuffle volume (identical
	// map→reduce work in both strategies).
	ShuffleBytes int64
	// Wall is the measured end-to-end wall time.
	Wall time.Duration
}

// PipelineHandoff runs X7.
func PipelineHandoff(cfg Config) (*PipelineHandoffResult, error) {
	cfg = cfg.normalized()
	spec := pagerank.IterSpec{
		Nodes:     cfg.n(4000),
		AvgDegree: 8,
		Seed:      cfg.Seed,
		Parts:     cfg.Reducers,
		MaxIters:  5,
	}
	// Both strategies generate the graph inside their timed section.
	chained, ranks, err := chainedPageRank(cfg, spec)
	if err != nil {
		return nil, err
	}

	// Pipeline: same jobs, stage outputs handed off engine-side; the rank
	// stage's job builds the same graph splits on iteration 0.
	start := time.Now()
	pres, err := dag.Run(context.Background(), pagerank.NewIterPipeline(spec),
		dag.Config{Engine: &dag.InProcess{}, Tracer: cfg.Tracer})
	if err != nil {
		return nil, fmt.Errorf("experiment x7 pipeline: %w", err)
	}
	pipeline := PipelineHandoffRow{
		Name:         "dag pipeline",
		DriverBytes:  pres.DriverBytes,
		ShuffleBytes: pres.Stats.ShuffleBytes,
		Wall:         time.Since(start),
	}

	out := &PipelineHandoffResult{
		Rows:              []PipelineHandoffRow{chained, pipeline},
		Iterations:        pres.Iterations,
		DriverSavedFactor: factor(chained.DriverBytes, pipeline.DriverBytes),
		WallSavedPct:      -pct(int64(pipeline.Wall), int64(chained.Wall)),
		Identical:         pres.Iterations == spec.MaxIters && samePartitions(ranks, pres.Output),
	}
	return out, nil
}

// chainedPageRank runs X7's baseline: the pipeline's three jobs chained
// through the driver for spec.MaxIters iterations, every stage's output
// collected and re-fed as the next job's splits. It generates the graph
// itself, inside the timed row, and returns the final rank partitions.
func chainedPageRank(cfg Config, spec pagerank.IterSpec) (PipelineHandoffRow, [][]mr.Record, error) {
	row := PipelineHandoffRow{Name: "chained jobs"}
	start := time.Now()
	parts := pagerank.IterInputs(spec)
	row.DriverBytes += recordPartsBytes(parts)
	for i := 0; i < spec.MaxIters; i++ {
		rres, err := chainStage(cfg, fmt.Sprintf("x7/chain/rank/%d", i), pagerank.NewRankJob(spec.Nodes, spec.Parts), parts)
		if err != nil {
			return row, nil, err
		}
		parts = rres.Output
		dres, err := chainStage(cfg, fmt.Sprintf("x7/chain/delta/%d", i), pagerank.NewDeltaJob(spec.Parts), parts)
		if err != nil {
			return row, nil, err
		}
		nres, err := chainStage(cfg, fmt.Sprintf("x7/chain/norm/%d", i), pagerank.NewNormJob(), dres.Output)
		if err != nil {
			return row, nil, err
		}
		row.DriverBytes += recordPartsBytes(parts) + recordPartsBytes(dres.Output) + recordPartsBytes(nres.Output)
		row.ShuffleBytes += rres.Stats.ShuffleBytes + dres.Stats.ShuffleBytes + nres.Stats.ShuffleBytes
	}
	row.Wall = time.Since(start)
	return row, parts, nil
}

// chainStage runs one baseline job over driver-held partitions, with
// the job settings a pipeline stage runs with.
func chainStage(cfg Config, name string, job *mr.Job, parts [][]mr.Record) (*mr.Result, error) {
	job.Tracer = cfg.Tracer
	splits := make([]mr.Split, len(parts))
	for i := range parts {
		splits[i] = &mr.MemSplit{Recs: parts[i]}
	}
	res, err := mr.Run(job, splits)
	if err != nil {
		return nil, fmt.Errorf("experiment job %s: %w", name, err)
	}
	cfg.Digests.Record(name, res)
	return res, nil
}

func recordPartsBytes(parts [][]mr.Record) int64 {
	var n int64
	for _, part := range parts {
		for _, r := range part {
			n += int64(len(r.Key) + len(r.Value))
		}
	}
	return n
}

func samePartitions(a, b [][]mr.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if len(a[p]) != len(b[p]) {
			return false
		}
		for i := range a[p] {
			if !bytes.Equal(a[p][i].Key, b[p][i].Key) || !bytes.Equal(a[p][i].Value, b[p][i].Value) {
				return false
			}
		}
	}
	return true
}

// Render writes X7.
func (r *PipelineHandoffResult) Render(w io.Writer) {
	t := Table{
		Title:  "X7 (extension) iterative PageRank: dag pipeline handoff vs job-per-iteration chaining",
		Header: []string{"strategy", "driverBytes", "shuffleBytes", "wall"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, Bytes(row.DriverBytes), Bytes(row.ShuffleBytes), Dur(row.Wall))
	}
	t.Render(w)
	t2 := Table{Header: []string{"metric", "value"}}
	t2.AddRow("iterations", fmt.Sprintf("%d", r.Iterations))
	t2.AddRow("driver re-spill reduction", fmt.Sprintf("%.1fx", r.DriverSavedFactor))
	t2.AddRow("wall-time delta", fmt.Sprintf("%+.1f%%", r.WallSavedPct))
	if r.Identical {
		t2.AddRow("output identity", "identical across strategies")
	} else {
		t2.AddRow("output identity", "MISMATCH")
	}
	t2.Render(w)
}
