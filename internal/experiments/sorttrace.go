package experiments

import (
	"io"
	"time"

	"repro/internal/anticombine"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/mr"
	"repro/internal/workloads/querysuggest"
	"repro/internal/workloads/sortwl"
)

// prefixSortMapper turns a query-log line into every prefix of the
// query, each under a nil value: a Sort of the prefix multiset. One Map
// call emitting the same value under many keys is exactly the shape
// Anti-Combining's EagerSH exploits, so — unlike plain Sort, where each
// Reduce call drains Shared immediately — decoded future keys pile up
// in Shared between Reduce calls and a small memory limit forces real
// spills and merges.
type prefixSortMapper struct{ mr.MapperBase }

// Map implements mr.Mapper.
func (prefixSortMapper) Map(key, value []byte, out mr.Emitter) error {
	query := datagen.ParseQueryLine(value)
	for i := 1; i <= len(query); i++ {
		if err := out.Emit(query[:i], nil); err != nil {
			return err
		}
	}
	return nil
}

// SortResult is the observability demo run: an AdaptiveSH prefix-sort
// job configured so the Shared structure actually spills (a tiny memory
// limit and an aggressive merge factor), reported together with the
// map/fetch overlap measured from the job's own timeline. With
// antibench's -trace flag this run produces a Chrome trace containing
// job, map, fetch, and reduce spans plus shared-spill and shared-merge
// spans from the forced spilling.
type SortResult struct {
	Run RunMetrics
	// SharedMerges counts Shared's on-disk run merges.
	SharedMerges int64
	// Overlap is how long shuffle fetches ran concurrently with
	// still-executing map tasks (costmodel.ObservedOverlap).
	Overlap time.Duration
}

// Sort runs the traced prefix-sort job.
func Sort(cfg Config) (*SortResult, error) {
	cfg = cfg.normalized()
	log := datagen.NewQueryLog(datagen.QueryLogConfig{
		Seed:    cfg.Seed,
		Queries: cfg.n(20000),
	})
	splits := querysuggest.Splits(log, cfg.Splits)
	base := &mr.Job{
		Name:       "prefixsort",
		NewMapper:  func() mr.Mapper { return prefixSortMapper{} },
		NewReducer: func() mr.Reducer { return sortwl.Reducer{} },
		// Prefix-1 routing keeps every prefix of a query on one reduce
		// task, maximizing per-partition sharing (§7.2's trick) and so
		// the pressure on Shared.
		Partitioner:    querysuggest.PrefixPartitioner{K: 1},
		NumReduceTasks: cfg.Reducers,
		Deterministic:  true,
	}
	// Force Shared onto disk: a 1 KiB cap spills near-constantly and
	// merge factor 2 triggers run merges early.
	job := anticombine.Wrap(base, anticombine.Options{
		Strategy:            anticombine.Adaptive,
		SharedMemLimitBytes: 1 << 10,
		SharedMergeFactor:   2,
	})
	job.DiscardOutput = true
	m, res, err := runJob(cfg, "prefixsort(AdaptiveSH,spilling)", job, splits)
	if err != nil {
		return nil, err
	}
	return &SortResult{
		Run:          m,
		SharedMerges: m.Extra[anticombine.CounterSharedMerges],
		Overlap:      costmodel.ObservedOverlap(res.Timeline),
	}, nil
}

// Render writes the run summary.
func (r *SortResult) Render(w io.Writer) {
	t := Table{
		Title: "OBS traced prefix-sort (AdaptiveSH, Shared forced to spill)",
		Header: []string{"variant", "mapOutBytes", "transfer", "disk r+w",
			"sharedSpills", "sharedMerges", "map/fetch overlap", "wall"},
	}
	m := r.Run
	t.AddRow(m.Name, Bytes(m.MapOutputBytes), Bytes(m.ShuffleBytes),
		Bytes(m.DiskRead+m.DiskWrite), itoa(m.SharedSpills), itoa(r.SharedMerges),
		Dur(r.Overlap), Dur(m.Wall))
	t.Render(w)
}
