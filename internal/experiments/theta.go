package experiments

import (
	"io"

	"repro/internal/anticombine"
	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/workloads/thetajoin"
)

// ThetaJoinResult is Figure 12: 1-Bucket-Theta band self-join over
// Cloud, map output size and runtime for Original / EagerSH /
// AdaptiveSH with and without compression. The paper saw ~67× input
// replication, AdaptiveSH (choosing LazySH everywhere) cutting map
// output ×9.5 and runtime ×9.6 (×6 with compression).
type ThetaJoinResult struct {
	// Variants holds the six bars in figure order.
	Variants []RunMetrics
	// ReplicationFactor is Original map-output records per input record.
	ReplicationFactor float64
	// AdaptiveLazyShare is the fraction of AdaptiveSH partitions
	// encoded as LazySH (the paper: all of them).
	AdaptiveLazyShare float64
}

// ThetaJoin runs E10 (Figure 12).
func ThetaJoin(cfg Config) (*ThetaJoinResult, error) {
	cfg = cfg.normalized()
	cloud := datagen.NewCloud(datagen.CloudConfig{
		Seed:    cfg.Seed,
		Records: cfg.n(3000),
	})
	// A 33×33 grid reproduces the paper's ~67× replication (1089
	// memory-sized regions spread over the reduce tasks).
	jcfg := thetajoin.Config{Rows: 33, Cols: 33, Reducers: cfg.Reducers}

	splits := thetajoin.Splits(cloud, cfg.Splits)
	run := func(name, variant string, compressed bool) (RunMetrics, error) {
		job := thetajoin.NewJob(jcfg)
		if variant != VariantOriginal {
			// The memory-aware 1-Bucket-Theta sizes region chunks to fit
			// reducer memory (2 GB/core in the paper), so Shared must be
			// given a chunk-sized budget; the default 1 MiB would spill
			// the regenerated region data and turn the job disk-bound.
			opts := anticombine.AdaptiveInf()
			if variant == VariantEager {
				opts = anticombine.Adaptive0()
			}
			opts.SharedMemLimitBytes = 64 << 20
			job = anticombine.Wrap(job, opts)
		}
		job.DiscardOutput = true
		if compressed {
			job.Codec = codec.Gzip{}
		}
		m, _, err := runJob(cfg, name, job, splits)
		return m, err
	}

	out := &ThetaJoinResult{}
	specs := []struct {
		name, variant string
		compressed    bool
	}{
		{"Original", VariantOriginal, false},
		{"EagerSH", VariantEager, false},
		{"AdaptiveSH", VariantAdaptive, false},
		{"Original-CP", VariantOriginal, true},
		{"EagerSH-CP", VariantEager, true},
		{"AdaptiveSH-CP", VariantAdaptive, true},
	}
	inputRecords := int64(cloud.Len())
	for _, s := range specs {
		m, err := run(s.name, s.variant, s.compressed)
		if err != nil {
			return nil, err
		}
		if s.name == "Original" {
			out.ReplicationFactor = factor(m.MapOutputRecords, inputRecords)
		}
		if s.name == "AdaptiveSH" {
			lazy := m.Extra["anti.lazyRecords"]
			total := lazy + m.Extra["anti.eagerRecords"] + m.Extra["anti.plainRecords"]
			if total > 0 {
				out.AdaptiveLazyShare = float64(lazy) / float64(total)
			}
		}
		out.Variants = append(out.Variants, m)
	}
	return out, nil
}

// Render writes Figure 12's two panels.
func (r *ThetaJoinResult) Render(w io.Writer) {
	t := Table{
		Title:  "E10 (Fig. 12) 1-Bucket-Theta band self-join on Cloud",
		Header: []string{"variant", "mapOutBytes", "transfer", "CPU", "est runtime"},
	}
	for _, m := range r.Variants {
		t.AddRow(m.Name, Bytes(m.MapOutputBytes), Bytes(m.ShuffleBytes), Dur(m.CPU), Dur(m.Est.Runtime))
	}
	t.Render(w)
	t2 := Table{Header: []string{"metric", "value"}}
	t2.AddRow("input replication factor", F(r.ReplicationFactor))
	t2.AddRow("AdaptiveSH lazy share", Pct(100*r.AdaptiveLazyShare))
	orig, anti := r.Variants[0], r.Variants[2]
	t2.AddRow("map output reduction", F(factor(orig.MapOutputBytes, anti.MapOutputBytes)))
	t2.AddRow("est runtime improvement", F(factor(int64(orig.Est.Runtime), int64(anti.Est.Runtime))))
	t2.Render(w)
}
