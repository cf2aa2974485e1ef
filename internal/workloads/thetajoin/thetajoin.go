// Package thetajoin implements the join workload of §7.7.3: the band
// self-join over Cloud reports
//
//	SELECT S.date, S.longitude, S.latitude, T.latitude
//	FROM Cloud AS S, Cloud AS T
//	WHERE S.date = T.date AND S.longitude = T.longitude
//	  AND ABS(S.latitude - T.latitude) <= 10
//
// executed with the 1-Bucket-Theta algorithm (Okcan & Riedewald,
// SIGMOD 2011): the |S|×|T| join matrix is tiled into a Rows×Cols grid
// of regions; each S tuple is assigned a matrix row and replicated to
// every region in that row, each T tuple a column and replicated down
// it, so every (s, t) pair meets in exactly one region. The resulting
// input replication (Rows + Cols per tuple, ~67× in the paper's setup)
// is exactly the fan-out Anti-Combining targets: all of a tuple's
// S-role copies share one value, and LazySH can ship the tuple once per
// reduce task.
//
// The paper's algorithm assigns rows/columns randomly; here the
// assignment is a hash of the tuple, which is uniform but deterministic
// so LazySH's Map re-execution reproduces the same routing (§6.2's
// determinism requirement).
package thetajoin

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/datagen"
	"repro/internal/mr"
)

// Config shapes the 1-Bucket-Theta join.
type Config struct {
	// Rows and Cols tile the join matrix; the replication factor is
	// Rows (T role) + Cols (S role). Default 8×8.
	Rows, Cols int
	// Reducers is the number of reduce tasks. Defaults to 8.
	Reducers int
	// BandTenths is the latitude band in tenths of a degree.
	// Defaults to 100 (the query's 10 degrees).
	BandTenths int32
	// PlacementSkew warps the deterministic row/column assignment: 0
	// (the default) keeps the historical uniform hash; e > 0 assigns
	// index floor(n·u^(1+e)) from the hash-derived uniform u, so low
	// rows and columns concentrate mass the way value-correlated
	// placement does in real joins — an adversarial load profile for
	// the uniform 1-Bucket-Theta grid (the regime SharesSkew targets).
	PlacementSkew float64
	// Shares, when non-nil, replaces the contiguous block partitioner
	// with a SharesSkew-style weighted share allocation (see
	// BuildSharesPlan), including sub-tiling of hot regions. Join
	// output records are identical either way.
	Shares *SharesPlan
}

func (c Config) normalized() Config {
	if c.Rows <= 0 {
		c.Rows = 8
	}
	if c.Cols <= 0 {
		c.Cols = 8
	}
	if c.Reducers <= 0 {
		c.Reducers = 8
	}
	if c.BandTenths <= 0 {
		c.BandTenths = 100
	}
	return c
}

// RegionKey renders a region id as a fixed-width big-endian key.
func RegionKey(region int) []byte {
	var k [4]byte
	binary.BigEndian.PutUint32(k[:], uint32(region))
	return k[:]
}

// blockPartitioner assigns contiguous region-id ranges to reduce tasks,
// the natural packing when memory-sized regions are handed out to
// reducers in order. Because a matrix row's regions have consecutive
// ids, an S tuple's whole row lands on only a couple of tasks, which is
// what lets LazySH collapse the row's replication to one record per
// task (the paper's 9.5× map-output reduction needs this clustering;
// a hash assignment would scatter the row across every reducer).
type blockPartitioner struct {
	regions int
}

// Partition implements mr.Partitioner.
func (p blockPartitioner) Partition(key []byte, numPartitions int) int {
	region := int(binary.BigEndian.Uint32(key))
	if region >= p.regions {
		region = p.regions - 1
	}
	return region * numPartitions / p.regions
}

// mapper replicates each tuple across its matrix row (as S) and column
// (as T).
type mapper struct {
	mr.MapperBase
	cfg Config
}

// Map implements mr.Mapper over one Cloud record line.
func (m mapper) Map(key, value []byte, out mr.Emitter) error {
	// Deterministic stand-ins for 1-Bucket-Theta's random row/column.
	row := placeIdx(datagen.Hash64(append([]byte("S|"), value...)), m.cfg.Rows, m.cfg.PlacementSkew)
	col := placeIdx(datagen.Hash64(append([]byte("T|"), value...)), m.cfg.Cols, m.cfg.PlacementSkew)

	sVal := append([]byte{'S'}, value...)
	for c := 0; c < m.cfg.Cols; c++ {
		g := row*m.cfg.Cols + c
		if sg := m.cfg.Shares.subOf(g); sg != nil {
			// Sub-tiled region: the S copy fans across the b
			// sub-columns of its hashed sub-row.
			sr := int(datagen.Hash64(append([]byte("sr|"), value...)) % uint64(sg.rows))
			for sc := 0; sc < sg.cols; sc++ {
				if err := out.Emit(subRegionKey(g, sr*sg.cols+sc), sVal); err != nil {
					return err
				}
			}
			continue
		}
		if err := out.Emit(RegionKey(g), sVal); err != nil {
			return err
		}
	}
	tVal := append([]byte{'T'}, value...)
	for r := 0; r < m.cfg.Rows; r++ {
		g := r*m.cfg.Cols + col
		if sg := m.cfg.Shares.subOf(g); sg != nil {
			// The T copy fans down the a sub-rows of its hashed
			// sub-column, meeting each S sub-copy exactly once.
			sc := int(datagen.Hash64(append([]byte("sc|"), value...)) % uint64(sg.cols))
			for sr := 0; sr < sg.rows; sr++ {
				if err := out.Emit(subRegionKey(g, sr*sg.cols+sc), tVal); err != nil {
					return err
				}
			}
			continue
		}
		if err := out.Emit(RegionKey(g), tVal); err != nil {
			return err
		}
	}
	return nil
}

// placeIdx maps a hash to a grid index: uniform at skew 0 (the
// historical byte-identical path), else floor(n·u^(1+skew)).
func placeIdx(h uint64, n int, skew float64) int {
	if skew <= 0 {
		return int(h % uint64(n))
	}
	u := float64(h>>11) / float64(1<<53)
	idx := int(math.Pow(u, 1+skew) * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// tuple is a parsed Cloud record, reduced to the join attributes.
type tuple struct {
	date, lon, lat int32
}

// reducer joins one region's S and T lists with the band predicate.
type reducer struct {
	mr.ReducerBase
	cfg Config
}

// Reduce implements mr.Reducer. The local join is an in-memory
// nested-loop over the region's chunk, like the memory-aware
// 1-Bucket-Theta's per-region join.
func (r reducer) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	var ss, ts []tuple
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		if len(v) == 0 {
			return fmt.Errorf("thetajoin: empty value")
		}
		date, lon, lat, ok2 := datagen.ParseCloudLine(v[1:])
		if !ok2 {
			return fmt.Errorf("thetajoin: bad record %q", v)
		}
		switch v[0] {
		case 'S':
			ss = append(ss, tuple{date, lon, lat})
		case 'T':
			ts = append(ts, tuple{date, lon, lat})
		default:
			return fmt.Errorf("thetajoin: unknown role %q", v[0])
		}
	}
	// Sub-tiled groups carry a 5th sub-region index byte; strip it on
	// output so the joined records are byte-identical to an un-tiled
	// run (every (s, t) pair meets exactly once either way).
	outKey := key
	if len(key) == 5 {
		outKey = key[:4]
	}
	for _, s := range ss {
		for _, t := range ts {
			if s.date == t.date && s.lon == t.lon && abs32(s.lat-t.lat) <= r.cfg.BandTenths {
				line := fmt.Sprintf("%d,%d,%d,%d", s.date, s.lon, s.lat, t.lat)
				if err := out.Emit(outKey, []byte(line)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

// NewJob builds the 1-Bucket-Theta join job. With cfg.Shares set, the
// share plan replaces the block partitioner (routing and sub-tiling
// stay deterministic, so LazySH remains legal).
func NewJob(cfg Config) *mr.Job {
	cfg = cfg.normalized()
	var part mr.Partitioner = blockPartitioner{regions: cfg.Rows * cfg.Cols}
	if cfg.Shares != nil {
		part = cfg.Shares
	}
	return &mr.Job{
		Name:           "thetajoin",
		NewMapper:      func() mr.Mapper { return mapper{cfg: cfg} },
		NewReducer:     func() mr.Reducer { return reducer{cfg: cfg} },
		Partitioner:    part,
		NumReduceTasks: cfg.Reducers,
		Deterministic:  true,
	}
}

// Splits renders Cloud record lines as in-memory splits.
func Splits(cloud *datagen.Cloud, numSplits int) []mr.Split {
	return mr.LineSplits(cloud.Len(), numSplits, func(i int) string { return cloud.Record(i).Line() })
}

// Reference computes the exact join result multiset sequentially.
func Reference(cloud *datagen.Cloud, band int32) map[string]int {
	recs := make([]tuple, cloud.Len())
	for i := range recs {
		r := cloud.Record(i)
		recs[i] = tuple{r.Date, r.Longitude, r.Latitude}
	}
	out := make(map[string]int)
	for _, s := range recs {
		for _, t := range recs {
			if s.date == t.date && s.lon == t.lon && abs32(s.lat-t.lat) <= band {
				out[fmt.Sprintf("%d,%d,%d,%d", s.date, s.lon, s.lat, t.lat)]++
			}
		}
	}
	return out
}
