package experiments

import (
	"io"
	"time"

	"repro/internal/datagen"
	"repro/internal/workloads/cpuwork"
	"repro/internal/workloads/querysuggest"
)

// SkewResult is extension experiment X4, quantifying §6.2's "Total cost
// versus running time" discussion: a reducer dealing with many LazySH
// records pays the re-executed Map calls, so LazySH-heavy plans can be
// slower to *complete* even when total cost drops — acceptable when
// optimizing throughput, and boundable via the threshold T. The
// experiment measures per-reduce-task time skew (max/mean) for
// Adaptive-0 (no re-execution), Adaptive-∞, and pure LazySH on a
// Query-Suggestion job whose Map calls are made expensive with the
// §7.6 Fibonacci busy-work, concentrated by the Prefix-1 partitioner —
// a lazy-heavy reducer re-executes its letter's entire Map workload.
type SkewResult struct {
	Variants []string
	// MaxTask and MeanTask are per-variant reduce-task durations.
	MaxTask  []time.Duration
	MeanTask []time.Duration
	// Skew is max/mean per variant.
	Skew []float64
	// MaxMapTask, MeanMapTask, and MapSkew are the map-phase analogues,
	// from mr.Result.MapTaskTimes: LazySH shifts work from map to
	// reduce, so map-side skew should stay flat while reduce-side skew
	// grows.
	MaxMapTask  []time.Duration
	MeanMapTask []time.Duration
	MapSkew     []float64
	// CPU is the variant's total CPU (the throughput side of the
	// trade-off).
	CPU []time.Duration
	// MapOutputBytes is the transfer side.
	MapOutputBytes []int64
}

// Skew runs X4.
func Skew(cfg Config) (*SkewResult, error) {
	cfg = cfg.normalized()
	log := datagen.NewQueryLog(datagen.QueryLogConfig{
		Seed:    cfg.Seed,
		Queries: cfg.n(6000),
	})
	splits := querysuggest.Splits(log, cfg.Splits)

	out := &SkewResult{Variants: []string{VariantOriginal, VariantEager, VariantAdaptive, VariantLazy}}
	for _, variant := range out.Variants {
		job := querysuggest.NewJob(querysuggest.Config{
			// Prefix-1 concentrates each first letter's whole workload —
			// and all its LazySH re-execution — on one reduce task.
			Partitioner: querysuggest.PrefixPartitioner{K: 1},
			Reducers:    cfg.Reducers,
		}, false)
		job = cpuwork.WrapJob(job, 4) // expensive Map calls (§7.6 busy-work)
		job = wrapVariant(job, variant)
		job.DiscardOutput = true
		_, res, err := runJob(cfg, "skew/"+variant, job, splits)
		if err != nil {
			return nil, err
		}
		maxT, mean, skew := taskSkew(res.ReduceTaskTimes)
		out.MaxTask = append(out.MaxTask, maxT)
		out.MeanTask = append(out.MeanTask, mean)
		out.Skew = append(out.Skew, skew)
		maxM, meanM, skewM := taskSkew(res.MapTaskTimes)
		out.MaxMapTask = append(out.MaxMapTask, maxM)
		out.MeanMapTask = append(out.MeanMapTask, meanM)
		out.MapSkew = append(out.MapSkew, skewM)
		out.CPU = append(out.CPU, res.Stats.TotalCPU())
		out.MapOutputBytes = append(out.MapOutputBytes, res.Stats.MapOutputBytes)
	}
	return out, nil
}

// taskSkew summarizes a per-task duration slice as (max, mean,
// max/mean).
func taskSkew(times []time.Duration) (time.Duration, time.Duration, float64) {
	var maxT, sum time.Duration
	for _, d := range times {
		if d > maxT {
			maxT = d
		}
		sum += d
	}
	var mean time.Duration
	if len(times) > 0 {
		mean = sum / time.Duration(len(times))
	}
	skew := 0.0
	if mean > 0 {
		skew = float64(maxT) / float64(mean)
	}
	return maxT, mean, skew
}

// Render writes X4.
func (r *SkewResult) Render(w io.Writer) {
	t := Table{
		Title:  "X4 (extension, §6.2) reducer load skew under LazySH (Query-Suggestion, Prefix-1)",
		Header: []string{"variant", "mapOutBytes", "totalCPU", "maxRed", "meanRed", "redSkew", "maxMap", "meanMap", "mapSkew"},
	}
	for i, v := range r.Variants {
		t.AddRow(v, Bytes(r.MapOutputBytes[i]), Dur(r.CPU[i]),
			Dur(r.MaxTask[i]), Dur(r.MeanTask[i]), F(r.Skew[i]),
			Dur(r.MaxMapTask[i]), Dur(r.MeanMapTask[i]), F(r.MapSkew[i]))
	}
	t.Render(w)
}
