package partition

import (
	"fmt"

	"repro/internal/bytesx"
	"repro/internal/mr"
)

// Strategy names a partitioning plan.
type Strategy int

const (
	// StrategyHash keeps the engine's default hash partitioner.
	StrategyHash Strategy = iota
	// StrategyRange bin-packs sampled key ranges onto reducers.
	StrategyRange
	// StrategySplit additionally fans heavy-hitter keys across
	// partitions with reduce-side partial aggregation + Recombine.
	StrategySplit
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyHash:
		return "hash"
	case StrategyRange:
		return "range"
	case StrategySplit:
		return "split"
	}
	return "unknown"
}

// skewThreshold is the acceptable predicted max/mean partition byte
// ratio; the cheapest strategy predicted under it wins.
const skewThreshold = 1.25

// DecideOptions tunes Decide.
type DecideOptions struct {
	// LazyAllowed reports whether the anti-combining layer may pick
	// LazySH for this job (its strategy permits lazy and the job is
	// deterministic). Decide uses it for the §6.2 interaction flag:
	// LazySH re-executes Map on the reducer, so residual partition
	// skew amplifies into reduce-CPU skew and the decision should fall
	// back to EagerSH.
	LazyAllowed bool
}

// Decision is Decide's output: the chosen strategy plus the per-
// strategy predictions that justify it.
type Decision struct {
	Strategy Strategy
	// Predicted maps each candidate strategy to its predicted max/mean
	// partition byte ratio from the sketch.
	Predicted map[Strategy]float64
	// LazyCaution is set when even the chosen strategy leaves
	// predicted skew above the threshold while LazySH is on the table:
	// the anti-combining decision should prefer EagerSH (Adaptive-0)
	// for this job, because LazySH would re-execute the hot
	// partition's Map calls on its one overloaded reducer (§6.2).
	LazyCaution bool
	// Reason is a one-line human-readable justification.
	Reason string
}

// Decide predicts each strategy's partition balance from the sketch
// and picks the cheapest one under the skew threshold: hash (no plan,
// no salting) when the keys already spread, range when contiguous
// ranges can balance, split when a heavy hitter must be fanned out.
func Decide(sk *Sketch, reducers int, cmp bytesx.Compare, opts DecideOptions) (Decision, error) {
	if sk == nil || sk.Len() == 0 {
		return Decision{}, fmt.Errorf("partition: decide on an empty sketch")
	}
	if reducers < 1 {
		return Decision{}, fmt.Errorf("partition: decide needs >= 1 reducers, got %d", reducers)
	}

	hashLoads := make([]int64, reducers)
	for _, kw := range sk.Keys(cmp) {
		hashLoads[(mr.HashPartitioner{}).Partition(kw.Key, reducers)] += kw.Bytes
	}
	pred := map[Strategy]float64{StrategyHash: SkewRatio(hashLoads)}

	rp, err := BuildRange(sk, reducers, cmp)
	if err != nil {
		return Decision{}, err
	}
	pred[StrategyRange] = SkewRatio(rp.PredictedLoads())

	sp, err := BuildSplit(sk, reducers, cmp)
	if err != nil {
		return Decision{}, err
	}
	pred[StrategySplit] = SkewRatio(sp.PredictedLoads())

	d := Decision{Predicted: pred}
	switch {
	case pred[StrategyHash] <= skewThreshold:
		d.Strategy = StrategyHash
		d.Reason = fmt.Sprintf("hash already balanced (predicted max/mean %.2fx <= %.2fx)",
			pred[StrategyHash], skewThreshold)
	case pred[StrategyRange] <= skewThreshold:
		d.Strategy = StrategyRange
		d.Reason = fmt.Sprintf("range packing balances %.2fx hash skew to %.2fx",
			pred[StrategyHash], pred[StrategyRange])
	default:
		d.Strategy = StrategySplit
		d.Reason = fmt.Sprintf("heavy hitter exceeds a reducer: splitting %d key(s) predicts %.2fx (range %.2fx)",
			len(sp.hot), pred[StrategySplit], pred[StrategyRange])
	}
	if pred[d.Strategy] > skewThreshold && opts.LazyAllowed {
		d.LazyCaution = true
		d.Reason += "; residual skew with LazySH available — prefer EagerSH (§6.2)"
	}
	return d, nil
}

// Apply returns a copy of job configured for the strategy, with plans
// built from the sketch. For StrategySplit the returned plan is
// non-nil and the caller must invoke Recombine(job, plan, result)
// after the run (with the original, unwrapped job). StrategyHash
// returns the job unchanged.
func Apply(job *mr.Job, strat Strategy, sk *Sketch) (*mr.Job, *SplitPlan, error) {
	reducers := job.NumReduceTasks
	if reducers <= 0 {
		reducers = 4
	}
	switch strat {
	case StrategyHash:
		return job, nil, nil
	case StrategyRange:
		rp, err := BuildRange(sk, reducers, job.KeyCompare)
		if err != nil {
			return nil, nil, err
		}
		out := *job
		out.Partitioner = rp
		return &out, nil, nil
	case StrategySplit:
		plan, err := BuildSplit(sk, reducers, job.KeyCompare)
		if err != nil {
			return nil, nil, err
		}
		wrapped, err := SplitJob(job, plan, nil)
		if err != nil {
			return nil, nil, err
		}
		return wrapped, plan, nil
	}
	return nil, nil, fmt.Errorf("partition: unknown strategy %d", strat)
}
