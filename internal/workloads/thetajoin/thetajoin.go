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
	"slices"
	"strconv"

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
// (as T). It reuses its key and value buffers across emits:
// mr.Emitter implementations copy what they keep.
type mapper struct {
	mr.MapperBase
	cfg        Config
	key        [5]byte // region key, then the sub-region index byte
	sVal, tVal []byte
}

// Map implements mr.Mapper over one Cloud record line.
func (m *mapper) Map(key, value []byte, out mr.Emitter) error {
	// Deterministic stand-ins for 1-Bucket-Theta's random row/column:
	// Hash64("S|"+value) and Hash64("T|"+value).
	hs, ht := datagen.Hash64Tagged2("S|", "T|", value)
	row := placeIdx(hs, m.cfg.Rows, m.cfg.PlacementSkew)
	col := placeIdx(ht, m.cfg.Cols, m.cfg.PlacementSkew)

	// Hash64("sr|"+value) and Hash64("sc|"+value) pick the sub-row and
	// sub-column in sub-tiled regions.
	var hsr, hsc uint64
	if m.cfg.Shares != nil && len(m.cfg.Shares.sub) > 0 {
		hsr, hsc = datagen.Hash64Tagged2("sr|", "sc|", value)
	}
	m.sVal = append(append(m.sVal[:0], 'S'), value...)
	for c := 0; c < m.cfg.Cols; c++ {
		g := row*m.cfg.Cols + c
		if sg := m.cfg.Shares.subOf(g); sg != nil {
			// Sub-tiled region: the S copy fans across the b
			// sub-columns of its hashed sub-row.
			sr := int(hsr % uint64(sg.rows))
			for sc := 0; sc < sg.cols; sc++ {
				if err := out.Emit(m.subRegionKey(g, sr*sg.cols+sc), m.sVal); err != nil {
					return err
				}
			}
			continue
		}
		if err := out.Emit(m.regionKey(g), m.sVal); err != nil {
			return err
		}
	}
	m.tVal = append(append(m.tVal[:0], 'T'), value...)
	for r := 0; r < m.cfg.Rows; r++ {
		g := r*m.cfg.Cols + col
		if sg := m.cfg.Shares.subOf(g); sg != nil {
			// The T copy fans down the a sub-rows of its hashed
			// sub-column, meeting each S sub-copy exactly once.
			sc := int(hsc % uint64(sg.cols))
			for sr := 0; sr < sg.rows; sr++ {
				if err := out.Emit(m.subRegionKey(g, sr*sg.cols+sc), m.tVal); err != nil {
					return err
				}
			}
			continue
		}
		if err := out.Emit(m.regionKey(g), m.tVal); err != nil {
			return err
		}
	}
	return nil
}

// regionKey renders RegionKey(region) into the mapper's key buffer.
func (m *mapper) regionKey(region int) []byte {
	binary.BigEndian.PutUint32(m.key[:4], uint32(region))
	return m.key[:4]
}

// subRegionKey renders a sub-region key into the mapper's key buffer:
// the region key plus the sub-region index byte (the reducer strips it
// on output, so joined records are byte-identical to the un-tiled run).
// BuildSharesPlan caps a sub-grid at 256 sub-regions, so idx fits.
func (m *mapper) subRegionKey(region, idx int) []byte {
	binary.BigEndian.PutUint32(m.key[:4], uint32(region))
	m.key[4] = byte(idx)
	return m.key[:5]
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

// reducer joins one region's S and T lists with the band predicate. It
// reuses its tuple lists, bucket table and output line across regions.
type reducer struct {
	mr.ReducerBase
	cfg  Config
	ss   []tuple
	ts   []tuple
	next []int32 // T index -> the next T index of its bucket, or -1
	// slots is an open-addressed table from (date, lon) to one more than
	// the first T index of its bucket (0: empty slot).
	slots []int32
	line  []byte
}

// Reduce implements mr.Reducer. The local join is a bucketed band
// join over the region's chunk: T tuples are chained into (date, lon)
// buckets in arrival order, and each S tuple, in arrival order, visits
// only its bucket, applying the latitude band there. It emits exactly
// the nested loop's sequence over (S, T) in arrival order, because a
// pair outside the bucket never matches.
func (r *reducer) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	ss, ts := r.ss[:0], r.ts[:0]
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
	r.ss, r.ts = ss, ts
	if len(ss) == 0 || len(ts) == 0 {
		return nil
	}
	r.buildBuckets()
	// Sub-tiled groups carry a 5th sub-region index byte; strip it on
	// output so the joined records are byte-identical to an un-tiled
	// run (every (s, t) pair meets exactly once either way).
	outKey := key
	if len(key) == 5 {
		outKey = key[:4]
	}
	for _, s := range ss {
		for j := r.slots[r.slot(s)] - 1; j >= 0; j = r.next[j] {
			t := ts[j]
			if abs32(s.lat-t.lat) > r.cfg.BandTenths {
				continue
			}
			r.line = appendRow(r.line[:0], s, t.lat)
			if err := out.Emit(outKey, r.line); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildBuckets chains r.ts into (date, lon) buckets. It inserts in
// reverse arrival order, prepending, so every chain runs in arrival
// order.
func (r *reducer) buildBuckets() {
	size := 16
	for size < 2*len(r.ts) {
		size *= 2
	}
	if cap(r.slots) < size {
		r.slots = make([]int32, size)
	}
	r.slots = r.slots[:size]
	clear(r.slots)
	r.next = slices.Grow(r.next[:0], len(r.ts))[:len(r.ts)]
	for j := len(r.ts) - 1; j >= 0; j-- {
		i := r.slot(r.ts[j])
		r.next[j] = r.slots[i] - 1
		r.slots[i] = int32(j) + 1
	}
}

// slot returns the table slot of x's (date, lon) bucket: the slot that
// holds it, or the empty slot where it goes.
func (r *reducer) slot(x tuple) int {
	mask := len(r.slots) - 1
	// Fibonacci hashing of the packed (date, lon) pair.
	dl := uint64(uint32(x.date))<<32 | uint64(uint32(x.lon))
	i := int(dl*0x9e3779b97f4a7c15>>32) & mask
	for {
		j := r.slots[i] - 1
		if j < 0 || r.ts[j].date == x.date && r.ts[j].lon == x.lon {
			return i
		}
		i = (i + 1) & mask
	}
}

// appendRow renders one joined row, "date,lon,S.lat,T.lat".
func appendRow(b []byte, s tuple, tLat int32) []byte {
	b = strconv.AppendInt(b, int64(s.date), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(s.lon), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(s.lat), 10)
	b = append(b, ',')
	return strconv.AppendInt(b, int64(tLat), 10)
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
		NewMapper:      func() mr.Mapper { return &mapper{cfg: cfg} },
		NewReducer:     func() mr.Reducer { return &reducer{cfg: cfg} },
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
