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
	"strconv"
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

// mapper emits (prefix, (1, query)) for every prefix of the query. The
// value is EncodeValue(1, query), written into one buffer the mapper
// reuses: emitters copy what they keep.
type mapper struct {
	mr.MapperBase
	value []byte
}

// Map implements mr.Mapper. The input value is a QLog-format line.
func (m *mapper) Map(key, value []byte, out mr.Emitter) error {
	query := datagen.ParseQueryLine(value)
	if len(query) == 0 {
		return nil
	}
	m.value = append(bytesx.AppendUvarint(m.value[:0], 1), query...)
	for i := 1; i <= len(query); i++ {
		if err := out.Emit(query[:i], m.value); err != nil {
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
// monoid with a top-k rendering final.
type Counts struct{}

// QueryCounts is a Counts state. Most prefixes see a single query, so
// the first query and its count are held inline, and only a second
// distinct query promotes the state to a table mapping each query to its
// count's cell. The zero value is the empty state, and absorbing a query
// already counted updates its count in place: only a first-seen query
// allocates.
type QueryCounts struct {
	one   bool // query and count hold the state's only query
	query string
	count uint64
	more  map[string]*uint64 // every query's count once there are two; nil before
}

// Identity implements monoid.Monoid.
func (Counts) Identity() QueryCounts { return QueryCounts{} }

// Absorb implements monoid.Monoid. It is add over a byte view, written
// out so that the query is copied only when the state takes it.
func (Counts) Absorb(s QueryCounts, v []byte) (QueryCounts, error) {
	count, query, err := DecodeValue(v)
	if err != nil {
		return s, err
	}
	switch {
	case s.more != nil:
		if c := s.more[string(query)]; c != nil {
			*c += count
			return s, nil
		}
	case !s.one:
		return QueryCounts{one: true, query: string(query), count: count}, nil
	case s.query == string(query):
		s.count += count
		return s, nil
	}
	return s.insert(string(query), count), nil
}

// insert adds query, which s holds no count for, with count. An inline
// query moves into the table first.
func (s QueryCounts) insert(query string, count uint64) QueryCounts {
	if s.more == nil {
		first := s.count
		s.more = map[string]*uint64{s.query: &first}
		s.one, s.query, s.count = false, "", 0
	}
	s.more[query] = &count
	return s
}

// Emit implements monoid.Monoid.
func (Counts) Emit(key []byte, s QueryCounts, out mr.Emitter) error {
	if s.one {
		return out.Emit(key, append(bytesx.AppendUvarint(nil, s.count), s.query...))
	}
	queries := make([]string, 0, len(s.more))
	for q := range s.more {
		queries = append(queries, q)
	}
	sort.Strings(queries)
	var buf []byte
	for _, q := range queries {
		buf = append(bytesx.AppendUvarint(buf[:0], *s.more[q]), q...)
		if err := out.Emit(key, buf); err != nil {
			return err
		}
	}
	return nil
}

// Size implements monoid.Sizer: the value bytes Emit writes for s.
func (Counts) Size(s QueryCounts) int {
	if s.one {
		return uvarintLen(s.count) + len(s.query)
	}
	n := 0
	for q, c := range s.more {
		n += uvarintLen(*c) + len(q)
	}
	return n
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// maxStackTop is the largest top-k finalTop selects into a stack array.
const maxStackTop = 8

// finalTop renders a fully merged count table as the job's top-k output
// line — the `final` argument to monoid.Reducer. It keeps the k best
// queries by (count desc, query asc) in a sorted array as it walks the
// table, and renders them into one buffer of exactly the line's length,
// byte for byte what FormatTop writes.
func finalTop(topK int) func(key []byte, s QueryCounts, out mr.Emitter) error {
	return func(key []byte, s QueryCounts, out mr.Emitter) error {
		var stack [maxStackTop]queryCount
		top := stack[:0]
		if topK > maxStackTop {
			top = make([]queryCount, 0, topK)
		}
		if s.one {
			top = keepTop(top, topK, s.query, s.count)
		}
		for q, c := range s.more {
			top = keepTop(top, topK, q, *c)
		}
		n := 0
		for i, e := range top {
			if i > 0 {
				n++
			}
			n += len(e.q) + 1 + decimalLen(e.c)
		}
		line := make([]byte, 0, n)
		for i, e := range top {
			if i > 0 {
				line = append(line, '|')
			}
			line = strconv.AppendUint(append(append(line, e.q...), ':'), e.c, 10)
		}
		return out.Emit(key, line)
	}
}

// keepTop inserts (q, c) into top, which is sorted by (count desc, query
// asc) and holds at most k entries, when it ranks among the best k.
func keepTop(top []queryCount, k int, q string, c uint64) []queryCount {
	i := len(top)
	if i == k {
		if k == 0 || !ranksBefore(q, c, top[k-1]) {
			return top
		}
		i--
	} else {
		top = top[:i+1]
	}
	for ; i > 0 && ranksBefore(q, c, top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = queryCount{q, c}
	return top
}

// ranksBefore reports whether (q, c) comes before e in (count desc,
// query asc) order.
func ranksBefore(q string, c uint64, e queryCount) bool {
	if c != e.c {
		return c > e.c
	}
	return q < e.q
}

// decimalLen is the number of decimal digits of x.
func decimalLen(x uint64) int {
	n := 1
	for ; x >= 10; x /= 10 {
		n++
	}
	return n
}

// queryCount is one query and its count.
type queryCount struct {
	q string
	c uint64
}

// FormatTop renders the top-k queries by (count desc, query asc) as
// "query:count|..." — the reference finalTop is tested against, shared
// with reference implementations in tests.
func FormatTop(counts map[string]uint64, k int) string {
	all := make([]queryCount, 0, len(counts))
	for q, c := range counts {
		all = append(all, queryCount{q, c})
	}
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
		NewMapper:      func() mr.Mapper { return &mapper{} },
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
