package experiments

import (
	"context"
	"testing"

	"repro/internal/dag"
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
			row, _, err := chainedPageRank(Config{}, spec)
			if err != nil {
				b.Fatal(err)
			}
			driverBytes = row.DriverBytes
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
