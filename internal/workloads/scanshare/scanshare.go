// Package scanshare implements the multi-query scan-sharing workload §1
// motivates: several aggregation queries are merged into one MapReduce
// job over a shared input scan (as Pig, Hive, MRShare and CoScan do),
// so a single scanned record "might have to be duplicated many times in
// order to forward it to the downstream operators of the queries
// involved" — one tagged copy per query. Those copies all carry the
// same value (the record), which is exactly Anti-Combining's sharing
// opportunity: EagerSH collapses the per-partition duplicates and
// LazySH ships the scanned record once per reduce task.
//
// The queries are simple group-by aggregations over Cloud reports:
// query q selects records with a hash-derived selectivity, groups them
// by one of the join attributes (date, longitude band, latitude band),
// and computes COUNT and SUM(latitude), declared as the CountSum monoid
// so the reducer folds.
package scanshare

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/monoid"
	"repro/internal/mr"
)

// Config shapes the merged job.
type Config struct {
	// Queries is how many downstream queries share the scan.
	// Defaults to 8.
	Queries int
	// SelectivityPct is each query's selection selectivity in percent.
	// Defaults to 100 (every record feeds every query).
	SelectivityPct int
	// Reducers is the number of reduce tasks. Defaults to 8.
	Reducers int
}

func (c Config) normalized() Config {
	if c.Queries <= 0 {
		c.Queries = 8
	}
	if c.SelectivityPct <= 0 || c.SelectivityPct > 100 {
		c.SelectivityPct = 100
	}
	if c.Reducers <= 0 {
		c.Reducers = 8
	}
	return c
}

// groupKey derives query q's group-by key for a record.
func groupKey(q int, date, lon, lat int32) string {
	switch q % 3 {
	case 0:
		return fmt.Sprintf("q%02d|d%d", q, date)
	case 1:
		return fmt.Sprintf("q%02d|x%d", q, lon/360) // 36-degree longitude bands
	default:
		return fmt.Sprintf("q%02d|y%d", q, (lat+900)/300) // 30-degree latitude bands
	}
}

// selected reports whether query q's selection keeps the record,
// deterministically (LazySH re-executes Map on the reducers).
func selected(cfg Config, q int, line []byte) bool {
	if cfg.SelectivityPct >= 100 {
		return true
	}
	h := datagen.Hash64(line) ^ (uint64(q)+1)*0x9e3779b97f4a7c15
	return int(h%100) < cfg.SelectivityPct
}

// mapper forwards each scanned record to every selecting query.
type mapper struct {
	mr.MapperBase
	cfg Config
}

// Map implements mr.Mapper over one Cloud record line.
func (m mapper) Map(key, value []byte, out mr.Emitter) error {
	date, lon, lat, ok := datagen.ParseCloudLine(value)
	if !ok {
		return fmt.Errorf("scanshare: bad record %q", value)
	}
	for q := 0; q < m.cfg.Queries; q++ {
		if !selected(m.cfg, q, value) {
			continue
		}
		// The value component is the record itself — the duplication
		// across queries that Anti-Combining removes.
		if err := out.Emit([]byte(groupKey(q, date, lon, lat)), value); err != nil {
			return err
		}
	}
	return nil
}

// CountSum is the aggregation monoid of every query: COUNT and
// SUM(latitude) per (query, group). Absorb takes a Cloud line (the map
// value, shared across queries) or a partial state, which Emit writes
// as "=count,sum"; the leading '=' keeps a partial from parsing as a
// Cloud line. The reducer renders the final state with FormatAgg.
type CountSum struct{}

// countSum is CountSum's state.
type countSum struct{ count, sum int64 }

// Identity implements monoid.Monoid.
func (CountSum) Identity() countSum { return countSum{} }

// Absorb implements monoid.Monoid.
func (CountSum) Absorb(s countSum, v []byte) (countSum, error) {
	if len(v) > 0 && v[0] == '=' {
		c, sum, ok := bytes.Cut(v[1:], []byte{','})
		n, err1 := strconv.ParseInt(string(c), 10, 64)
		m, err2 := strconv.ParseInt(string(sum), 10, 64)
		if !ok || err1 != nil || err2 != nil {
			return s, fmt.Errorf("scanshare: bad partial %q", v)
		}
		return countSum{s.count + n, s.sum + m}, nil
	}
	_, _, lat, ok := datagen.ParseCloudLine(v)
	if !ok {
		return s, fmt.Errorf("scanshare: bad record %q", v)
	}
	return countSum{s.count + 1, s.sum + int64(lat)}, nil
}

// Emit implements monoid.Monoid.
func (CountSum) Emit(key []byte, s countSum, out mr.Emitter) error {
	v := strconv.AppendInt([]byte{'='}, s.count, 10)
	v = strconv.AppendInt(append(v, ','), s.sum, 10)
	return out.Emit(key, v)
}

// final renders a group's aggregate as the job's output.
func final(key []byte, s countSum, out mr.Emitter) error {
	return out.Emit(key, []byte(FormatAgg(s.count, s.sum)))
}

// FormatAgg renders an aggregate result (shared with Reference).
func FormatAgg(count, sumLat int64) string {
	return strconv.FormatInt(count, 10) + "," + strconv.FormatInt(sumLat, 10)
}

// NewJob builds the merged scan-sharing job.
func NewJob(cfg Config) *mr.Job {
	cfg = cfg.normalized()
	return &mr.Job{
		Name:           "scanshare",
		NewMapper:      func() mr.Mapper { return mapper{cfg: cfg} },
		NewReducer:     monoid.Reducer(CountSum{}, final),
		NumReduceTasks: cfg.Reducers,
		Deterministic:  true,
	}
}

// Splits renders Cloud record lines as in-memory splits.
func Splits(cloud *datagen.Cloud, numSplits int) []mr.Split {
	return mr.LineSplits(cloud.Len(), numSplits, func(i int) string { return cloud.Record(i).Line() })
}

// Reference computes the expected per-(query, group) aggregates
// sequentially.
func Reference(cloud *datagen.Cloud, cfg Config) map[string]string {
	cfg = cfg.normalized()
	type agg struct{ count, sumLat int64 }
	aggs := map[string]*agg{}
	for i := 0; i < cloud.Len(); i++ {
		rec := cloud.Record(i)
		line := []byte(rec.Line())
		for q := 0; q < cfg.Queries; q++ {
			if !selected(cfg, q, line) {
				continue
			}
			k := groupKey(q, rec.Date, rec.Longitude, rec.Latitude)
			a, ok := aggs[k]
			if !ok {
				a = &agg{}
				aggs[k] = a
			}
			a.count++
			a.sumLat += int64(rec.Latitude)
		}
	}
	out := make(map[string]string, len(aggs))
	for k, a := range aggs {
		out[k] = FormatAgg(a.count, a.sumLat)
	}
	return out
}
