package experiments

import (
	"encoding/json"
	"fmt"

	"repro/internal/anticombine"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/mr"
	"repro/internal/workloads/querysuggest"
	"repro/internal/workloads/sortwl"
	"repro/internal/workloads/wordcount"
)

// ClusterSpec is the wire-level parameterization of the experiment
// jobs registered for cluster mode. Coordinator and worker processes
// rebuild identical jobs and splits from it (datagen is seeded, so
// every process derives the same input).
type ClusterSpec struct {
	Scale    float64
	Seed     uint64
	Splits   int
	Reducers int
}

// Cluster-registered experiment job names.
const (
	ClusterJobWordCount  = "exp/wordcount"
	ClusterJobPrefixSort = "exp/prefixsort"
)

func init() {
	cluster.RegisterJob(ClusterJobWordCount, buildClusterWordCount)
	cluster.RegisterJob(ClusterJobPrefixSort, buildClusterPrefixSort)
}

func clusterConfig(spec []byte) (Config, error) {
	var s ClusterSpec
	if err := json.Unmarshal(spec, &s); err != nil {
		return Config{}, fmt.Errorf("experiments: bad cluster spec: %w", err)
	}
	return Config{Scale: s.Scale, Seed: s.Seed, Splits: s.Splits, Reducers: s.Reducers}.normalized(), nil
}

// ClusterRef builds a JobRef for one of the cluster-registered jobs.
func ClusterRef(name string, cfg Config) (cluster.JobRef, error) {
	cfg = cfg.normalized()
	spec, err := json.Marshal(ClusterSpec{
		Scale: cfg.Scale, Seed: cfg.Seed, Splits: cfg.Splits, Reducers: cfg.Reducers,
	})
	if err != nil {
		return cluster.JobRef{}, err
	}
	return cluster.JobRef{Name: name, Spec: spec}, nil
}

// buildClusterWordCount is §7.7.1's WordCount (with its combiner) kept
// with output, so cluster and single-process runs can be compared
// byte for byte.
func buildClusterWordCount(spec []byte) (*mr.Job, []mr.Split, error) {
	cfg, err := clusterConfig(spec)
	if err != nil {
		return nil, nil, err
	}
	text := datagen.NewRandomText(datagen.RandomTextConfig{
		Seed:         cfg.Seed,
		Lines:        cfg.n(4000),
		WordsPerLine: 60,
	})
	return wordcount.NewJob(cfg.Reducers), wordcount.Splits(text, cfg.Splits), nil
}

// buildClusterPrefixSort is the prefix-sort workload under AdaptiveSH
// Anti-Combining, so cluster mode also exercises the paper's codec
// across a real network shuffle.
func buildClusterPrefixSort(spec []byte) (*mr.Job, []mr.Split, error) {
	cfg, err := clusterConfig(spec)
	if err != nil {
		return nil, nil, err
	}
	log := datagen.NewQueryLog(datagen.QueryLogConfig{
		Seed:    cfg.Seed,
		Queries: cfg.n(5000),
	})
	base := &mr.Job{
		Name:           "prefixsort",
		NewMapper:      func() mr.Mapper { return prefixSortMapper{} },
		NewReducer:     func() mr.Reducer { return sortwl.Reducer{} },
		Partitioner:    querysuggest.PrefixPartitioner{K: 1},
		NumReduceTasks: cfg.Reducers,
		Deterministic:  true,
	}
	job := anticombine.Wrap(base, anticombine.AdaptiveInf())
	return job, querysuggest.Splits(log, cfg.Splits), nil
}
