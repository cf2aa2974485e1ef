package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/costmodel"
	"repro/internal/mr"
	"repro/internal/partition"
	"repro/internal/workloads/skewagg"
)

// SkewPartitionResult is extension experiment X5: skew-aware adaptive
// partitioning (internal/partition) on the adversarial skewagg
// workload, run over two skew shapes:
//
//   - zipf-hot: the default Zipf head — one key carrying most of the
//     map output. Nothing short of splitting can balance it, so Decide
//     must pick StrategySplit.
//   - colliding-heads: several mid-weight keys, each below a reducer's
//     worth, that collide under hash. Range packing separates them, so
//     Decide must pick StrategyRange.
//
// For each profile all three strategies run and the table compares
// max/mean partition bytes (measured vs sketch-predicted), modeled
// network time (the shared-fabric makespan tracks the max flow),
// reduce-task time skew, and output identity: sorted records must be
// byte-equal across strategies (split runs through Recombine first).
type SkewPartitionResult struct {
	Profiles []SkewPartitionProfile
}

// SkewPartitionProfile is one skew shape's decision plus measured runs.
type SkewPartitionProfile struct {
	Name string
	// Decision is the sketch-driven choice with per-strategy
	// predictions; LazyCaution flags the §6.2 anti-combining
	// interaction (residual skew + LazySH available → prefer EagerSH).
	Decision partition.Decision
	// SketchKeys is the sketch's tracked key count (exact here: the
	// workload's key space fits the default capacity).
	SketchKeys int
	// HotKeys is the split plan's fanned-out key count.
	HotKeys int
	// Rows holds one measured run per strategy.
	Rows []SkewPartitionRow
	// Digests maps each strategy to its sorted-records digest;
	// Identical is whether all three are equal.
	Digests   map[string]string
	Identical bool
}

// SkewPartitionRow is one strategy's measured balance.
type SkewPartitionRow struct {
	Strategy string
	// MaxPart, MeanPart, and Skew summarize measured per-partition
	// shuffle bytes (costmodel.PartitionSkew over
	// Result.ShufflePerPartition).
	MaxPart, MeanPart int64
	Skew              float64
	// Predicted is the sketch's predicted max/mean for the strategy.
	Predicted float64
	// NetTime and EstRuntime are the cluster model's shuffle makespan
	// and bottleneck runtime.
	NetTime    time.Duration
	EstRuntime time.Duration
	// ReduceSkew is measured reduce-task time max/mean.
	ReduceSkew float64
	// MapOutputBytes differs only for split (salting adds 2 bytes per
	// hot-key record).
	MapOutputBytes int64
}

// SkewPartition runs X5.
func SkewPartition(cfg Config) (*SkewPartitionResult, error) {
	cfg = cfg.normalized()
	profiles := []struct {
		name string
		scfg skewagg.Config
	}{
		{"zipf-hot", skewagg.Config{
			Records:  cfg.n(20000),
			Reducers: cfg.Reducers,
			Seed:     cfg.Seed,
		}},
		{"colliding-heads", skewagg.Config{
			Records:  cfg.n(20000),
			Reducers: cfg.Reducers,
			Seed:     cfg.Seed,
			// Three ranks that hash to one partition; each carries
			// ~13% of the records — heavy, but packable.
			HeavyRanks: collidingRanks(cfg.Reducers),
			Exponent:   1.0,
		}},
	}
	out := &SkewPartitionResult{}
	for _, p := range profiles {
		prof, err := runSkewProfile(cfg, p.name, p.scfg)
		if err != nil {
			return nil, err
		}
		out.Profiles = append(out.Profiles, *prof)
	}
	return out, nil
}

// collidingRanks returns the first three key ranks, from 4 upward,
// whose keys mr.HashPartitioner sends to one of reducers partitions.
// Ranks past the Zipf head carry little mass of their own, so each
// stays below a reducer's worth; deriving them from the partitioner
// keeps the shape adversarial under any hash.
func collidingRanks(reducers int) []int {
	byPart := make(map[int][]int)
	for rank := 4; ; rank++ {
		p := mr.HashPartitioner{}.Partition([]byte(skewagg.Key(rank)), reducers)
		if byPart[p] = append(byPart[p], rank); len(byPart[p]) == 3 {
			return byPart[p]
		}
	}
}

func runSkewProfile(cfg Config, name string, scfg skewagg.Config) (*SkewPartitionProfile, error) {
	gen := skewagg.NewGen(scfg)
	splits := skewagg.Splits(gen, cfg.Splits)

	// Sampling pass: exact (splits are materialized in memory).
	sk, err := partition.Sample(skewagg.NewJob(scfg), splits)
	if err != nil {
		return nil, err
	}
	dec, err := partition.Decide(sk, cfg.Reducers, nil, partition.DecideOptions{LazyAllowed: true})
	if err != nil {
		return nil, err
	}

	out := &SkewPartitionProfile{
		Name:       name,
		Decision:   dec,
		SketchKeys: sk.Len(),
		Digests:    make(map[string]string, 3),
		Identical:  true,
	}

	run := func(strat partition.Strategy) error {
		base := skewagg.NewJob(scfg)
		job := base
		var plan *partition.SplitPlan
		switch strat {
		case partition.StrategySplit:
			// SplitJob gets the monoid combiner explicitly instead of
			// setting base.NewCombiner: a map-side combiner would
			// collapse the shuffle for this strategy only and skew the
			// A/B comparison.
			plan, err = partition.BuildSplit(sk, cfg.Reducers, nil)
			if err != nil {
				return err
			}
			job, err = partition.SplitJob(base, plan, skewagg.NewCombiner)
			if err != nil {
				return err
			}
			out.HotKeys = len(plan.HotKeys())
		default:
			job, plan, err = partition.Apply(base, strat, sk)
			if err != nil {
				return err
			}
		}
		m, res, err := runJob(cfg, "skewpart/"+name+"/"+strat.String(), job, splits)
		if err != nil {
			return err
		}
		if err := partition.Recombine(base, plan, res); err != nil {
			return err
		}
		maxB, meanB, ratio := costmodel.PartitionSkew(res.ShufflePerPartition)
		_, _, redSkew := taskSkew(res.ReduceTaskTimes)
		out.Rows = append(out.Rows, SkewPartitionRow{
			Strategy:       strat.String(),
			MaxPart:        maxB,
			MeanPart:       meanB,
			Skew:           ratio,
			Predicted:      dec.Predicted[strat],
			NetTime:        m.Est.NetTime,
			EstRuntime:     m.Est.Runtime,
			ReduceSkew:     redSkew,
			MapOutputBytes: m.MapOutputBytes,
		})
		out.Digests[strat.String()] = RecordsDigest(res)
		if out.Digests[strat.String()] != out.Digests[partition.StrategyHash.String()] {
			out.Identical = false
		}
		return nil
	}
	for _, strat := range []partition.Strategy{partition.StrategyHash, partition.StrategyRange, partition.StrategySplit} {
		if err := run(strat); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Render writes X5.
func (r *SkewPartitionResult) Render(w io.Writer) {
	for _, p := range r.Profiles {
		t := Table{
			Title:  fmt.Sprintf("X5 (extension) skew-aware partitioning on skewagg, profile %s", p.Name),
			Header: []string{"strategy", "maxPart", "meanPart", "skew", "predicted", "netTime", "est runtime", "redSkew", "mapOutBytes"},
		}
		for _, row := range p.Rows {
			t.AddRow(row.Strategy, Bytes(row.MaxPart), Bytes(row.MeanPart), F(row.Skew), F(row.Predicted),
				Dur(row.NetTime), Dur(row.EstRuntime), F(row.ReduceSkew), Bytes(row.MapOutputBytes))
		}
		t.Render(w)
		t2 := Table{Header: []string{"metric", "value"}}
		t2.AddRow("decision", p.Decision.Strategy.String())
		t2.AddRow("reason", p.Decision.Reason)
		t2.AddRow("sketch keys", fmt.Sprintf("%d", p.SketchKeys))
		t2.AddRow("split hot keys", fmt.Sprintf("%d", p.HotKeys))
		if p.Identical {
			t2.AddRow("output identity", "identical across strategies")
		} else {
			t2.AddRow("output identity", "MISMATCH")
		}
		t2.Render(w)
	}
}
