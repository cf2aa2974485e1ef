// Package skewagg is an adversarially skewed aggregation workload: a
// keyed sum over records whose keys follow a steep Zipf distribution,
// built to break hash partitioning — at the default exponent the top
// key alone carries well over half the map output, so the reducer that
// hashes it inherits several times the mean partition load. It is the
// proving ground for internal/partition: range partitioning isolates
// the hot key but cannot shrink it below one reducer, and heavy-hitter
// splitting fans it out with reduce-side partial aggregation.
//
// The job runs without a map-side combiner by default (MapCombiner
// opts one in): the paper's anti-combining premise is that combiners
// are often ineffective or absent, and an uncombined shuffle is what
// exposes partition skew as real network imbalance. The aggregate —
// count, sum, and an XOR fold of per-record hashes — is a commutative
// monoid, so partial aggregates merge to byte-identical finals
// regardless of how records were grouped, which is exactly the
// contract heavy-hitter splitting needs.
package skewagg

import (
	"bytes"
	"fmt"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/monoid"
	"repro/internal/mr"
)

// Config shapes the generator and job.
type Config struct {
	// Records is the dataset size. Default 20000.
	Records int
	// Keys is the distinct key count. Default 400.
	Keys int
	// Exponent is the Zipf exponent; 2.2 (default) puts ~65% of the
	// mass on the top key.
	Exponent float64
	// ValueBytes pads each record's payload so framing overhead stays
	// proportionally small. Default 64.
	ValueBytes int
	// Reducers is the reduce task count. Default 8.
	Reducers int
	// Seed makes the dataset reproducible. Default 1.
	Seed uint64
	// HeavyRanks, when non-empty, redirects HeavyShare of the records
	// evenly onto the listed key ranks before the Zipf tail draws the
	// rest. It builds the *other* adversarial shape: several mid-weight
	// keys, none larger than a reducer, that collide under the default
	// hash partitioner when the ranks are chosen to (Key names a rank's
	// key) — the case range partitioning fixes without splitting.
	HeavyRanks []int
	// HeavyShare is the record fraction HeavyRanks receives. Default
	// 0.4 when HeavyRanks is set.
	HeavyShare float64
	// MapCombiner keeps a map-side combiner on the job. Off by
	// default: combining would collapse each partition to a handful of
	// records and hide the shuffle imbalance under study.
	MapCombiner bool
}

func (c Config) normalized() Config {
	if c.Records <= 0 {
		c.Records = 20000
	}
	if c.Keys <= 0 {
		c.Keys = 400
	}
	if c.Exponent <= 0 {
		c.Exponent = 2.2
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 64
	}
	if c.Reducers <= 0 {
		c.Reducers = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.HeavyRanks) > 0 && c.HeavyShare <= 0 {
		c.HeavyShare = 0.4
	}
	return c
}

// Gen deterministically generates the dataset: record i is a pure
// function of (seed, i), so splits can be cut anywhere.
type Gen struct {
	cfg  Config
	zipf *datagen.Zipf
}

// NewGen builds a generator.
func NewGen(cfg Config) *Gen {
	cfg = cfg.normalized()
	return &Gen{cfg: cfg, zipf: datagen.NewZipf(cfg.Keys, cfg.Exponent)}
}

// Len is the record count.
func (g *Gen) Len() int { return g.cfg.Records }

const pad = "abcdefghijklmnopqrstuvwxyz0123456789"

// Line renders record i: "key<TAB>n:<count>:<payload>".
func (g *Gen) Line(i int) string {
	rng := datagen.NewRNG(g.cfg.Seed).Fork(uint64(i))
	var rank int
	if len(g.cfg.HeavyRanks) > 0 && rng.Float64() < g.cfg.HeavyShare {
		rank = g.cfg.HeavyRanks[rng.Intn(len(g.cfg.HeavyRanks))]
	} else {
		rank = g.zipf.Sample(rng)
	}
	n := rng.Intn(1000)
	var payload bytes.Buffer
	for payload.Len() < g.cfg.ValueBytes {
		payload.WriteByte(pad[rng.Intn(len(pad))])
	}
	return fmt.Sprintf("%s\t%d:%s", Key(rank), n, payload.String())
}

// Key is the key of the given Zipf rank.
func Key(rank int) string { return fmt.Sprintf("key%05d", rank) }

// mapper parses "key<TAB>value" lines and emits them keyed.
type mapper struct{ mr.MapperBase }

// Map implements mr.Mapper.
func (mapper) Map(key, value []byte, out mr.Emitter) error {
	tab := bytes.IndexByte(value, '\t')
	if tab < 0 {
		return fmt.Errorf("skewagg: record without tab: %q", value)
	}
	return out.Emit(value[:tab], value[tab+1:])
}

// aggState is the aggregation state of the Agg monoid.
type aggState struct {
	count, sum int64
	xor        uint64
}

// Agg is the workload's aggregation monoid: (count, sum, xor-of-hashes)
// with component-wise addition/XOR. It folds raw records
// ("<n>:<payload>") and partial aggregates ("a:<count>:<sum>:<xor>")
// alike, so its derived combiner can be reapplied at every level —
// count and sum add and the hash fold XORs, so any grouping of the same
// record multiset reduces to identical bytes (the contract heavy-hitter
// splitting needs, now property-tested instead of assumed).
type Agg struct{}

// Identity implements monoid.Monoid.
func (Agg) Identity() aggState { return aggState{} }

// Absorb implements monoid.Monoid.
func (Agg) Absorb(st aggState, v []byte) (aggState, error) {
	if bytes.HasPrefix(v, []byte("a:")) {
		parts := bytes.Split(v, []byte(":"))
		if len(parts) != 4 {
			return st, fmt.Errorf("skewagg: bad partial %q", v)
		}
		c, err := strconv.ParseInt(string(parts[1]), 10, 64)
		if err != nil {
			return st, fmt.Errorf("skewagg: bad partial count %q: %w", v, err)
		}
		sum, err := strconv.ParseInt(string(parts[2]), 10, 64)
		if err != nil {
			return st, fmt.Errorf("skewagg: bad partial sum %q: %w", v, err)
		}
		x, err := strconv.ParseUint(string(parts[3]), 16, 64)
		if err != nil {
			return st, fmt.Errorf("skewagg: bad partial xor %q: %w", v, err)
		}
		st.count += c
		st.sum += sum
		st.xor ^= x
		return st, nil
	}
	colon := bytes.IndexByte(v, ':')
	if colon < 0 {
		return st, fmt.Errorf("skewagg: bad record %q", v)
	}
	n, err := strconv.ParseInt(string(v[:colon]), 10, 64)
	if err != nil {
		return st, fmt.Errorf("skewagg: bad record count %q: %w", v, err)
	}
	st.count++
	st.sum += n
	st.xor ^= datagen.Hash64(v)
	return st, nil
}

// Emit implements monoid.Monoid.
func (Agg) Emit(key []byte, st aggState, out mr.Emitter) error {
	return out.Emit(key, []byte(fmt.Sprintf("a:%d:%d:%016x", st.count, st.sum, st.xor)))
}

// CommutativeMonoid marks the aggregate as commutative (addition and
// XOR both commute).
func (Agg) CommutativeMonoid() {}

// NewJob builds the skewed aggregation job. The partitioner is left at
// the engine default (hash) — internal/partition.Apply swaps it.
func NewJob(cfg Config) *mr.Job {
	cfg = cfg.normalized()
	j := &mr.Job{
		Name:           "skewagg",
		NewMapper:      func() mr.Mapper { return mapper{} },
		NewReducer:     monoid.Reducer(Agg{}, nil),
		NumReduceTasks: cfg.Reducers,
		Deterministic:  true,
	}
	if cfg.MapCombiner {
		j.NewCombiner = NewCombiner
	}
	return j
}

// NewCombiner is the aggregation's monoid combiner factory — what
// partition.SplitJob uses for reduce-side partial aggregation even
// when the job itself runs combiner-less.
var NewCombiner = monoid.Combiner(Agg{})

// Splits renders generated lines as in-memory splits.
func Splits(g *Gen, numSplits int) []mr.Split {
	return mr.LineSplits(g.Len(), numSplits, g.Line)
}

// Reference computes the exact aggregate lines sequentially for tests.
func Reference(g *Gen) map[string]string {
	type agg struct {
		count, sum int64
		xor        uint64
	}
	accs := make(map[string]*agg)
	for i := 0; i < g.Len(); i++ {
		line := g.Line(i)
		tab := bytes.IndexByte([]byte(line), '\t')
		key, v := line[:tab], line[tab+1:]
		a := accs[key]
		if a == nil {
			a = &agg{}
			accs[key] = a
		}
		colon := bytes.IndexByte([]byte(v), ':')
		n, _ := strconv.ParseInt(v[:colon], 10, 64)
		a.count++
		a.sum += n
		a.xor ^= datagen.Hash64([]byte(v))
	}
	out := make(map[string]string, len(accs))
	for k, a := range accs {
		out[k] = fmt.Sprintf("a:%d:%d:%016x", a.count, a.sum, a.xor)
	}
	return out
}
