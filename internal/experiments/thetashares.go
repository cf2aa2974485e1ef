package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/anticombine"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/workloads/thetajoin"
)

// ThetaSharesResult is extension experiment X6: SharesSkew-style share
// allocation for the 1-Bucket-Theta join under placement skew. With
// PlacementSkew warping row/column assignment, the grid's low regions
// concentrate most of the join matrix and the contiguous block
// partitioner overloads whichever reducer owns them. The experiment
// samples region weights into a sketch, builds a SharesPlan (hot
// regions sub-tiled into a×b sub-grids, everything LPT-packed by
// weight), and compares block vs shares — alone and under AdaptiveSH,
// since share allocation reshapes exactly the replicated flows
// anti-combining compresses. Join output must be record-identical
// across all four runs.
type ThetaSharesResult struct {
	// Rows holds block/shares × plain/AdaptiveSH.
	Rows []ThetaSharesRow
	// SubTiled is how many regions the plan split into sub-grids.
	SubTiled int
	// Digests maps each run to its sorted-records digest; Identical is
	// whether all are equal.
	Digests   map[string]string
	Identical bool
}

// ThetaSharesRow is one run's measured balance.
type ThetaSharesRow struct {
	Name              string
	MaxPart, MeanPart int64
	Skew              float64
	NetTime           time.Duration
	EstRuntime        time.Duration
	MapOutputBytes    int64
}

// ThetaShares runs X6.
func ThetaShares(cfg Config) (*ThetaSharesResult, error) {
	cfg = cfg.normalized()
	cloud := datagen.NewCloud(datagen.CloudConfig{
		Seed:    cfg.Seed,
		Records: cfg.n(1500),
	})
	// A small grid with strong placement skew: region (0,0) alone draws
	// most of both roles' replication, the adversarial case for the
	// uniform block assignment.
	jcfg := thetajoin.Config{Rows: 6, Cols: 6, Reducers: cfg.Reducers, PlacementSkew: 6}
	splits := thetajoin.Splits(cloud, cfg.Splits)

	// Region weights from a sampling sketch over the block job's map
	// output (36 region keys — exact at default sketch capacity).
	sk, err := partition.Sample(thetajoin.NewJob(jcfg), splits)
	if err != nil {
		return nil, err
	}
	plan := thetajoin.BuildSharesPlan(jcfg, thetajoin.RegionWeights(sk, jcfg), cfg.Reducers, 1)

	scfg := jcfg
	scfg.Shares = plan
	out := &ThetaSharesResult{
		SubTiled:  plan.SubTiled(),
		Digests:   make(map[string]string, 4),
		Identical: true,
	}
	var first string
	run := func(name string, c thetajoin.Config, adaptive bool) error {
		job := thetajoin.NewJob(c)
		if adaptive {
			opts := anticombine.AdaptiveInf()
			opts.SharedMemLimitBytes = 64 << 20
			job = anticombine.Wrap(job, opts)
		}
		m, res, err := runJob(cfg, "thetashares/"+name, job, splits)
		if err != nil {
			return err
		}
		maxB, meanB, ratio := costmodel.PartitionSkew(res.ShufflePerPartition)
		out.Rows = append(out.Rows, ThetaSharesRow{
			Name:           name,
			MaxPart:        maxB,
			MeanPart:       meanB,
			Skew:           ratio,
			NetTime:        m.Est.NetTime,
			EstRuntime:     m.Est.Runtime,
			MapOutputBytes: m.MapOutputBytes,
		})
		d := RecordsDigest(res)
		out.Digests[name] = d
		if first == "" {
			first = d
		} else if d != first {
			out.Identical = false
		}
		return nil
	}
	specs := []struct {
		name     string
		cfg      thetajoin.Config
		adaptive bool
	}{
		{"block", jcfg, false},
		{"shares", scfg, false},
		{"block+AdaptiveSH", jcfg, true},
		{"shares+AdaptiveSH", scfg, true},
	}
	for _, s := range specs {
		if err := run(s.name, s.cfg, s.adaptive); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Render writes X6.
func (r *ThetaSharesResult) Render(w io.Writer) {
	t := Table{
		Title:  "X6 (extension) SharesSkew allocation for 1-Bucket-Theta under placement skew",
		Header: []string{"variant", "maxPart", "meanPart", "skew", "netTime", "est runtime", "mapOutBytes"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, Bytes(row.MaxPart), Bytes(row.MeanPart), F(row.Skew),
			Dur(row.NetTime), Dur(row.EstRuntime), Bytes(row.MapOutputBytes))
	}
	t.Render(w)
	t2 := Table{Header: []string{"metric", "value"}}
	t2.AddRow("sub-tiled regions", fmt.Sprintf("%d", r.SubTiled))
	if r.Identical {
		t2.AddRow("output identity", "identical across variants")
	} else {
		t2.AddRow("output identity", "MISMATCH")
	}
	t2.Render(w)
}
