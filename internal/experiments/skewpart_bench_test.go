package experiments

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/mr"
	"repro/internal/partition"
	"repro/internal/workloads/skewagg"
)

// BenchmarkSkewPartition times one full skewagg run per partitioning
// strategy and reports the measured partition balance as custom
// metrics (maxpart-B, meanpart-B, skew-x) — the BENCH_5 numbers the CI
// bench job publishes via benchjson. Plan construction (sample +
// build) happens once outside the timed loop: the plan is reusable
// across runs, and the per-run cost under study is the engine
// executing a balanced vs imbalanced shuffle.
func BenchmarkSkewPartition(b *testing.B) {
	scfg := skewagg.Config{Records: 8000, Reducers: 8, Seed: 2014}
	gen := skewagg.NewGen(scfg)
	splits := skewagg.Splits(gen, 8)
	sk, err := partition.Sample(skewagg.NewJob(scfg), splits)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []partition.Strategy{partition.StrategyHash, partition.StrategyRange, partition.StrategySplit} {
		b.Run(strat.String(), func(b *testing.B) {
			var maxB, meanB int64
			var ratio float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base := skewagg.NewJob(scfg)
				var job *mr.Job
				var plan *partition.SplitPlan
				var err error
				if strat == partition.StrategySplit {
					plan, err = partition.BuildSplit(sk, scfg.Reducers, nil)
					if err != nil {
						b.Fatal(err)
					}
					job, err = partition.SplitJob(base, plan, skewagg.NewCombiner)
				} else {
					job, plan, err = partition.Apply(base, strat, sk)
				}
				if err != nil {
					b.Fatal(err)
				}
				res, err := mr.Run(job, splits)
				if err != nil {
					b.Fatal(err)
				}
				if err := partition.Recombine(base, plan, res); err != nil {
					b.Fatal(err)
				}
				maxB, meanB, ratio = costmodel.PartitionSkew(res.ShufflePerPartition)
			}
			b.ReportMetric(float64(maxB), "maxpart-B")
			b.ReportMetric(float64(meanB), "meanpart-B")
			b.ReportMetric(ratio, "skew-x")
		})
	}
}
