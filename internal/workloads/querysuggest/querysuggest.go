// Package querysuggest implements the paper's running example (§2): for
// every prefix P of any logged search query, compute the top-k most
// frequent queries starting with P. Map emits (prefix, query) for each
// prefix — output quadratic in the query length — making the
// shuffle-and-sort phase the job's bottleneck and the workload the
// paper's primary evaluation vehicle (Figures 9-11, Tables 1-2).
package querysuggest

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bytesx"
	"repro/internal/datagen"
	"repro/internal/monoid"
	"repro/internal/mr"
)

// Config shapes the Query-Suggestion job.
type Config struct {
	// TopK is how many suggestions to keep per prefix. Defaults to 5,
	// the paper's choice.
	TopK int
	// Reducers is the number of reduce tasks. Defaults to 8.
	Reducers int
	// Partitioner routes prefixes to reduce tasks; §7.2 compares Hash,
	// Prefix-1, and Prefix-5. Defaults to Hash.
	Partitioner mr.Partitioner
}

func (c Config) normalized() Config {
	if c.TopK <= 0 {
		c.TopK = 5
	}
	if c.Reducers <= 0 {
		c.Reducers = 8
	}
	if c.Partitioner == nil {
		c.Partitioner = mr.HashPartitioner{}
	}
	return c
}

// EncodeValue packs a (count, query) pair into a value component. The
// original Map always emits count 1; the Combiner folds duplicates into
// the paper's "(key, (value, m))" aggregate records.
func EncodeValue(count uint64, query []byte) []byte {
	buf := bytesx.AppendUvarint(nil, count)
	return append(buf, query...)
}

// DecodeValue unpacks a value component. The query aliases buf.
func DecodeValue(buf []byte) (count uint64, query []byte, err error) {
	count, n, err := bytesx.Uvarint(buf)
	if err != nil {
		return 0, nil, fmt.Errorf("querysuggest: bad value: %w", err)
	}
	return count, buf[n:], nil
}

// PrefixPartitioner assigns all keys sharing their first K bytes to the
// same reduce task — the paper's Prefix-1 and Prefix-5 partitioners,
// designed to maximize sharing opportunities (§7.2).
type PrefixPartitioner struct {
	K int
}

// Partition implements mr.Partitioner.
func (p PrefixPartitioner) Partition(key []byte, numPartitions int) int {
	k := min(p.K, len(key))
	return mr.HashPartitioner{}.Partition(key[:k], numPartitions)
}

// mapper emits (prefix, (1, query)) for every prefix of the query.
type mapper struct{ mr.MapperBase }

// Map implements mr.Mapper. The input value is a QLog-format line.
func (mapper) Map(key, value []byte, out mr.Emitter) error {
	query := datagen.ParseQueryLine(value)
	if len(query) == 0 {
		return nil
	}
	encoded := EncodeValue(1, query)
	for i := 1; i <= len(query); i++ {
		if err := out.Emit(query[:i], encoded); err != nil {
			return err
		}
	}
	return nil
}

// Counts is the workload's aggregation monoid: a per-query count table
// merged by per-entry addition. Its state emits MULTIPLE records — one
// aggregate (prefix, (query, m)) per distinct query, sorted for
// determinism — replacing m occurrences of the same (prefix, query)
// exactly as the paper's combiner does (§2). The reducer is the same
// monoid with a top-k rendering final. The table maps each query to its
// count's cell, so absorbing a query already counted updates the cell in
// place: only a first-seen query allocates.
type Counts struct{}

// Identity implements monoid.Monoid.
func (Counts) Identity() map[string]*uint64 { return map[string]*uint64{} }

// Absorb implements monoid.Monoid.
func (Counts) Absorb(counts map[string]*uint64, v []byte) (map[string]*uint64, error) {
	count, query, err := DecodeValue(v)
	if err != nil {
		return counts, err
	}
	c := counts[string(query)]
	if c == nil {
		c = new(uint64)
		counts[string(query)] = c
	}
	*c += count
	return counts, nil
}

// Merge implements monoid.Monoid.
func (Counts) Merge(x, y map[string]*uint64) (map[string]*uint64, error) {
	for q, c := range y {
		xc := x[q]
		if xc == nil {
			xc = new(uint64)
			x[q] = xc
		}
		*xc += *c
	}
	return x, nil
}

// Emit implements monoid.Monoid.
func (Counts) Emit(key []byte, counts map[string]*uint64, out mr.Emitter) error {
	queries := make([]string, 0, len(counts))
	for q := range counts {
		queries = append(queries, q)
	}
	sort.Strings(queries)
	var buf []byte
	for _, q := range queries {
		buf = append(bytesx.AppendUvarint(buf[:0], *counts[q]), q...)
		if err := out.Emit(key, buf); err != nil {
			return err
		}
	}
	return nil
}

// CommutativeMonoid marks per-entry addition as commutative.
func (Counts) CommutativeMonoid() {}

// finalTop renders a fully merged count table as the job's top-k output
// line — the `final` argument to monoid.Reducer.
func finalTop(topK int) func(key []byte, counts map[string]*uint64, out mr.Emitter) error {
	return func(key []byte, counts map[string]*uint64, out mr.Emitter) error {
		all := make([]queryCount, 0, len(counts))
		for q, c := range counts {
			all = append(all, queryCount{q, *c})
		}
		return out.Emit(key, []byte(formatTop(all, topK)))
	}
}

// queryCount is one query and its count.
type queryCount struct {
	q string
	c uint64
}

// FormatTop renders the top-k queries by (count desc, query asc) as
// "query:count|..." — shared with reference implementations in tests.
func FormatTop(counts map[string]uint64, k int) string {
	all := make([]queryCount, 0, len(counts))
	for q, c := range counts {
		all = append(all, queryCount{q, c})
	}
	return formatTop(all, k)
}

// formatTop is FormatTop over a slice it reorders.
func formatTop(all []queryCount, k int) string {
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].q < all[j].q
	})
	if len(all) > k {
		all = all[:k]
	}
	parts := make([]string, len(all))
	for i, e := range all {
		parts[i] = fmt.Sprintf("%s:%d", e.q, e.c)
	}
	return strings.Join(parts, "|")
}

// NewJob builds the Query-Suggestion job. WithCombiner attaches the
// paper's combiner (off in the base experiments; §7.3 turns it on).
func NewJob(cfg Config, withCombiner bool) *mr.Job {
	cfg = cfg.normalized()
	job := &mr.Job{
		Name:           "querysuggest",
		NewMapper:      func() mr.Mapper { return mapper{} },
		NewReducer:     monoid.Reducer(Counts{}, finalTop(cfg.TopK)),
		Partitioner:    cfg.Partitioner,
		NumReduceTasks: cfg.Reducers,
		Deterministic:  true,
	}
	if withCombiner {
		job.NewCombiner = monoid.Combiner(Counts{})
	}
	return job
}

// Splits renders a synthetic query log as in-memory map input splits.
// Following §2, the record value carries the query string alone — "each
// query comes with additional features ... omitted here for simplicity"
// — which also matches §4.1's arithmetic where LazySH ships exactly the
// query. (The full QLog schema is available via QueryLogRecord.Line for
// the datagen CLI.)
func Splits(log *datagen.QueryLog, numSplits int) []mr.Split {
	return mr.LineSplits(log.Len(), numSplits, func(i int) string { return log.Record(i).Query })
}

// Reference computes the exact expected output on the full log with a
// sequential in-memory implementation, for correctness tests.
func Reference(log *datagen.QueryLog, topK int) map[string]string {
	byPrefix := make(map[string]map[string]uint64)
	for i := 0; i < log.Len(); i++ {
		q := log.Record(i).Query
		for p := 1; p <= len(q); p++ {
			prefix := q[:p]
			m, ok := byPrefix[prefix]
			if !ok {
				m = make(map[string]uint64)
				byPrefix[prefix] = m
			}
			m[q]++
		}
	}
	out := make(map[string]string, len(byPrefix))
	for prefix, counts := range byPrefix {
		out[prefix] = FormatTop(counts, topK)
	}
	return out
}
