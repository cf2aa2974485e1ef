package experiments

import (
	"context"
	"testing"

	"repro/internal/dag"
	"repro/internal/mr"
	"repro/internal/workloads/pagerank"
)

// BenchmarkPipelineHandoff times iterative PageRank under both
// execution strategies and reports the driver-boundary traffic as a
// custom metric (driver-B) — the BENCH_6 numbers the CI bench job
// publishes via benchjson. Each timed run generates the input graph
// once — the chained loop through IterInputs, the pipeline through its
// rank stage's registered job — and executes all five iterations.
func BenchmarkPipelineHandoff(b *testing.B) {
	spec := pagerank.IterSpec{Nodes: 2000, AvgDegree: 8, Seed: 2014, Parts: 4, MaxIters: 5}

	b.Run("chained", func(b *testing.B) {
		var driverBytes int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parts := pagerank.IterInputs(spec)
			driverBytes = recordPartsBytes(parts)
			for iter := 0; iter < spec.MaxIters; iter++ {
				rres := benchRun(b, pagerank.NewRankJob(spec.Nodes, spec.Parts), parts)
				parts = rres.Output
				dres := benchRun(b, pagerank.NewDeltaJob(spec.Parts), parts)
				nres := benchRun(b, pagerank.NewNormJob(), dres.Output)
				driverBytes += recordPartsBytes(parts) + recordPartsBytes(dres.Output) + recordPartsBytes(nres.Output)
			}
		}
		b.ReportMetric(float64(driverBytes), "driver-B")
	})

	b.Run("pipeline", func(b *testing.B) {
		var driverBytes int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := dag.Run(context.Background(), pagerank.NewIterPipeline(spec),
				dag.Config{Engine: &dag.InProcess{}})
			if err != nil {
				b.Fatal(err)
			}
			driverBytes = res.DriverBytes
		}
		b.ReportMetric(float64(driverBytes), "driver-B")
	})
}

func benchRun(b *testing.B, job *mr.Job, parts [][]mr.Record) *mr.Result {
	b.Helper()
	splits := make([]mr.Split, len(parts))
	for i := range parts {
		splits[i] = &mr.MemSplit{Recs: parts[i]}
	}
	res, err := mr.Run(job, splits)
	if err != nil {
		b.Fatal(err)
	}
	return res
}
