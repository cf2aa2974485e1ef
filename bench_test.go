package repro

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (§7) at benchmark scale and report the headline quantity of
// each as a custom metric, so `go test -bench=.` prints the same
// comparisons the paper's tables carry. EXPERIMENTS.md records the
// paper-vs-measured shapes. Per-module micro-benchmarks (codec
// throughput, Shared operations, engine pipeline) live next to their
// packages.

import (
	"testing"

	"repro/internal/anticombine"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/mr"
	"repro/internal/workloads/scanshare"
	"repro/internal/workloads/wordcount"
)

// benchCfg keeps benchmark iterations fast while preserving every shape
// the tests assert.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.05, Reducers: 4, Splits: 4}
}

// BenchmarkExpOverhead is E1 (§7.1): Anti-Combining's overhead on Sort,
// where it has nothing to share. Reported metric: CPU overhead percent
// (paper: +7.8%).
func BenchmarkExpOverhead(b *testing.B) {
	var cpuPct float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Overhead(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		cpuPct = r.CPUDeltaPct
	}
	b.ReportMetric(cpuPct, "cpu-overhead-%")
}

// BenchmarkExpFig9 is E2 (Figure 9): Query-Suggestion map output size.
// Reported metric: AdaptiveSH's reduction factor under Prefix-1
// (paper: up to 27x).
func BenchmarkExpFig9(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.QSMapOutput(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		orig := r.Metrics["Prefix-1"][experiments.VariantOriginal].MapOutputBytes
		anti := r.Metrics["Prefix-1"][experiments.VariantAdaptive].MapOutputBytes
		reduction = float64(orig) / float64(anti)
	}
	b.ReportMetric(reduction, "prefix1-reduction-x")
}

// BenchmarkExpQSCombiner is E3 (§7.3): the original combiner's modest
// shuffle reduction vs Anti-Combining with reduce-phase combining.
func BenchmarkExpQSCombiner(b *testing.B) {
	var spills float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.QSCombiner(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		spills = float64(r.AdaptiveNoCombiner.SharedSpills - r.AdaptiveCombiner.SharedSpills)
	}
	b.ReportMetric(spills, "shared-spills-avoided")
}

// BenchmarkExpFig10 is E4 (Figure 10): compressed map output with
// Combiner and gzip. Reported metric: AdaptiveSH/Original wire ratio
// under Prefix-5 (lower is better; paper: well below 1).
func BenchmarkExpFig10(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.QSCompression(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		orig := r.Metrics["Prefix-5"][experiments.VariantOriginal].ShuffleBytes
		anti := r.Metrics["Prefix-5"][experiments.VariantAdaptive].ShuffleBytes
		ratio = float64(anti) / float64(orig)
	}
	b.ReportMetric(ratio, "wire-ratio")
}

// BenchmarkExpTable1 is E5 (Table 1): codec cost breakdown. Reported
// metric: AdaptiveSH+gzip wire bytes over the best pure codec's (paper:
// 6 GB vs 15 GB for bzip2).
func BenchmarkExpTable1(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.QSCodecTable(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		best := int64(1) << 62
		var anti int64
		for _, m := range r.Rows {
			if m.Name == "AdaptiveSH+gzip" {
				anti = m.ShuffleBytes
			} else if m.ShuffleBytes < best {
				best = m.ShuffleBytes
			}
		}
		ratio = float64(anti) / float64(best)
	}
	b.ReportMetric(ratio, "anti-vs-best-codec")
}

// BenchmarkExpTable2 is E6 (Table 2): total cost breakdown. Reported
// metric: AdaptiveSH disk r+w reduction vs Original (paper: ~3.8-4.1x).
func BenchmarkExpTable2(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.QSCostBreakdown(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var orig, anti int64
		for _, m := range r.Rows {
			switch m.Name {
			case "Original":
				orig = m.DiskRead + m.DiskWrite
			case "AdaptiveSH":
				anti = m.DiskRead + m.DiskWrite
			}
		}
		f = float64(orig) / float64(anti)
	}
	b.ReportMetric(f, "disk-reduction-x")
}

// BenchmarkExpFig11 is E7 (Figure 11): CPU vs extra Map work. Reported
// metric: Adaptive-α's lazy share collapse from x=0 to x=max (paper:
// converges to Adaptive-0).
func BenchmarkExpFig11(b *testing.B) {
	var collapse float64
	for i := 0; i < b.N; i++ {
		cfg := benchCfg()
		cfg.Scale = 0.1
		r, err := experiments.CPUThreshold(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := r.LazyShare["Adaptive-a"]
		if s[0] > 0 {
			collapse = 1 - s[len(s)-1]/s[0]
		}
	}
	b.ReportMetric(collapse, "alpha-lazy-collapse")
}

// BenchmarkExpWordCount is E8 (§7.7.1). Reported metric: pre-combine map
// output record reduction (paper: 7x).
func BenchmarkExpWordCount(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.WordCount(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		f = r.RecordsFactor
	}
	b.ReportMetric(f, "precombine-records-x")
}

// BenchmarkExpPageRank is E9 (§7.7.2). Reported metric: shuffle
// reduction over 5 iterations (paper: 2.7x).
func BenchmarkExpPageRank(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.PageRank(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		f = r.ShuffleFactor
	}
	b.ReportMetric(f, "shuffle-reduction-x")
}

// BenchmarkExpFig12 is E10 (Figure 12). Reported metric: map output
// reduction on the 1-Bucket-Theta join (paper: 9.5x).
func BenchmarkExpFig12(b *testing.B) {
	var f float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.ThetaJoin(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var orig, anti int64
		for _, m := range r.Variants {
			switch m.Name {
			case "Original":
				orig = m.MapOutputBytes
			case "AdaptiveSH":
				anti = m.MapOutputBytes
			}
		}
		f = float64(orig) / float64(anti)
	}
	b.ReportMetric(f, "mapout-reduction-x")
}

// BenchmarkExtScanShare measures the extension workload from §1's
// motivation: N merged queries duplicating each scanned record.
// Reported metric: map-output byte collapse under AdaptiveSH.
func BenchmarkExtScanShare(b *testing.B) {
	cloud := datagen.NewCloud(datagen.CloudConfig{Seed: 5, Records: 1500, Days: 6, Stations: 12})
	cfg := scanshare.Config{Queries: 12, Reducers: 4}
	var f float64
	for i := 0; i < b.N; i++ {
		orig, err := mr.Run(scanshare.NewJob(cfg), scanshare.Splits(cloud, 4))
		if err != nil {
			b.Fatal(err)
		}
		anti, err := mr.Run(anticombine.Wrap(scanshare.NewJob(cfg), anticombine.AdaptiveInf()),
			scanshare.Splits(cloud, 4))
		if err != nil {
			b.Fatal(err)
		}
		f = float64(orig.Stats.MapOutputBytes) / float64(anti.Stats.MapOutputBytes)
	}
	b.ReportMetric(f, "scanshare-collapse-x")
}

// BenchmarkExtCrossCallWindow measures the paper's future-work extension
// (§9): EagerSH sharing across Map calls of the same task. Reported
// metric: record reduction of a 32-call window over per-call encoding on
// WordCount.
func BenchmarkExtCrossCallWindow(b *testing.B) {
	text := datagen.NewRandomText(datagen.RandomTextConfig{
		Seed: 91, Lines: 1000, WordsPerLine: 10, VocabWords: 5000,
	})
	run := func(window int) int64 {
		job := wordcount.NewJob(4)
		job.NewCombiner = nil
		res, err := mr.Run(anticombine.Wrap(job, anticombine.Options{
			Strategy:        anticombine.EagerOnly,
			CrossCallWindow: window,
		}), wordcount.Splits(text, 4))
		if err != nil {
			b.Fatal(err)
		}
		return res.Stats.MapOutputRecords
	}
	var f float64
	for i := 0; i < b.N; i++ {
		f = float64(run(0)) / float64(run(32))
	}
	b.ReportMetric(f, "window-records-x")
}
