package thetajoin

import (
	"encoding/binary"
	"math"

	"repro/internal/partition"
)

// SharesPlan is a SharesSkew-style share allocation (Afrati et al.,
// "SharesSkew: Handling Skew in Join Optimization Using MapReduce")
// for the 1-Bucket-Theta grid: each region's reducer share is
// proportional to its sampled load. A region heavier than the
// per-reducer target gets share > 1, realized as an a×b sub-grid of
// the region — its S tuples are replicated across the b sub-columns of
// their hashed sub-row and its T tuples down the a sub-rows of their
// hashed sub-column, so every (s, t) pair of the region still meets in
// exactly one sub-region and the join output is record-identical to
// the un-tiled run. Regions and sub-regions are then LPT bin-packed
// onto reducers by weight (partition.PackLPT), replacing the uniform
// contiguous block assignment that collapses under placement skew.
type SharesPlan struct {
	regions  int
	reducers int
	assign   []int // region -> reducer (unsub-tiled regions)
	sub      map[int]*subGrid
	loads    []int64
}

// subGrid is one hot region's a×b sub-tiling with per-sub-region
// reducer assignment.
type subGrid struct {
	rows, cols int
	parts      []int
}

// BuildSharesPlan allocates reducers to regions from per-region load
// weights (indexed by region id, e.g. RegionWeights over a sampling
// sketch). hotFactor scales the sub-tiling cut: a region is sub-tiled
// when its weight exceeds hotFactor × (total/reducers); <= 0 means 1.
func BuildSharesPlan(cfg Config, weights []int64, reducers int, hotFactor float64) *SharesPlan {
	cfg = cfg.normalized()
	if reducers < 1 {
		reducers = 1
	}
	if hotFactor <= 0 {
		hotFactor = 1
	}
	regions := cfg.Rows * cfg.Cols
	w := make([]int64, regions)
	copy(w, weights)
	var total int64
	for _, v := range w {
		total += v
	}
	target := total / int64(reducers)
	if target < 1 {
		target = 1
	}
	cut := int64(hotFactor * float64(target))

	// One packing item per region, plus a×b items per sub-tiled region.
	items := make([]int64, 0, regions)
	type hotEnt struct {
		region     int
		rows, cols int
	}
	var hots []hotEnt
	itemOf := make([]int, regions) // region -> its item index (or first sub item)
	for g := 0; g < regions; g++ {
		if w[g] > cut {
			share := int((w[g] + target - 1) / target)
			// A sub-region's index is one key byte, so a sub-grid
			// has at most 256 cells.
			share = min(share, reducers, 256)
			if share < 2 {
				share = 2
			}
			a, b := bestGrid(share)
			itemOf[g] = len(items)
			per := w[g] / int64(a*b)
			for i := 0; i < a*b; i++ {
				items = append(items, per)
			}
			hots = append(hots, hotEnt{region: g, rows: a, cols: b})
			continue
		}
		itemOf[g] = len(items)
		items = append(items, w[g])
	}
	assignItems, loads := partition.PackLPT(items, reducers)

	plan := &SharesPlan{
		regions:  regions,
		reducers: reducers,
		assign:   make([]int, regions),
		sub:      make(map[int]*subGrid, len(hots)),
		loads:    loads,
	}
	for g := 0; g < regions; g++ {
		plan.assign[g] = assignItems[itemOf[g]]
	}
	for _, h := range hots {
		n := h.rows * h.cols
		plan.sub[h.region] = &subGrid{
			rows:  h.rows,
			cols:  h.cols,
			parts: append([]int(nil), assignItems[itemOf[h.region]:itemOf[h.region]+n]...),
		}
	}
	return plan
}

// bestGrid factors share into the most-square a×b grid with a*b ==
// share (falling back toward 1×share for primes): squarer grids split
// both roles' replication growth evenly.
func bestGrid(share int) (a, b int) {
	a = int(math.Sqrt(float64(share)))
	for ; a > 1; a-- {
		if share%a == 0 {
			break
		}
	}
	if a < 1 {
		a = 1
	}
	return a, share / a
}

// Partition implements mr.Partitioner over region keys (4 bytes) and
// sub-region keys (5 bytes: region + sub index).
func (p *SharesPlan) Partition(key []byte, numPartitions int) int {
	region := int(binary.BigEndian.Uint32(key[:4]))
	if region >= p.regions {
		region = p.regions - 1
	}
	bin := p.assign[region]
	if len(key) >= 5 {
		if sg := p.sub[region]; sg != nil && int(key[4]) < len(sg.parts) {
			bin = sg.parts[key[4]]
		}
	}
	if numPartitions != p.reducers {
		return bin % numPartitions
	}
	return bin
}

// PredictedLoads is the packer's per-reducer weight prediction.
func (p *SharesPlan) PredictedLoads() []int64 { return append([]int64(nil), p.loads...) }

// SubTiled reports how many regions were sub-tiled.
func (p *SharesPlan) SubTiled() int { return len(p.sub) }

// subOf returns a region's sub-grid, nil when un-tiled (nil-receiver
// safe so the mapper can consult cfg.Shares unconditionally).
func (p *SharesPlan) subOf(region int) *subGrid {
	if p == nil {
		return nil
	}
	return p.sub[region]
}

// RegionWeights extracts per-region byte weights from a sampling
// sketch over this workload's map output (keys are RegionKeys).
func RegionWeights(sk *partition.Sketch, cfg Config) []int64 {
	cfg = cfg.normalized()
	out := make([]int64, cfg.Rows*cfg.Cols)
	for _, kw := range sk.Keys(nil) {
		if len(kw.Key) < 4 {
			continue
		}
		g := int(binary.BigEndian.Uint32(kw.Key[:4]))
		if g < len(out) {
			out[g] += kw.Bytes
		}
	}
	return out
}
