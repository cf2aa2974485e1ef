package experiments

import (
	"io"
	"strconv"

	"repro/internal/costmodel"
	"repro/internal/mr"
	"repro/internal/netsim"
	"repro/internal/workloads/querysuggest"
)

// NetworkSweepResult is an extension experiment (X3) built on the
// synthetic network evaluation: the same two Query-Suggestion runs
// (Original and AdaptiveSH, Prefix-5) are projected onto clusters with
// increasingly fast fabrics. §7's setup remark predicts the trend —
// "this configuration of comparably few machines connected to a fast
// network ... is a challenging setup for Anti-Combining ... In larger
// data centers ... Anti-Combining will deliver even more benefits" — so
// the runtime benefit must be largest on slow shared links and erode as
// the network stops being the bottleneck.
type NetworkSweepResult struct {
	// GbpsSteps are the modeled NIC speeds.
	GbpsSteps []float64
	// Original and Adaptive hold per-step runtime estimates.
	Original []costmodel.Estimate
	Adaptive []costmodel.Estimate
	// Ratio is Original/Adaptive estimated runtime per step.
	Ratio []float64
}

// NetworkSweep runs X3: one pair of measured jobs, many modeled fabrics.
func NetworkSweep(cfg Config) (*NetworkSweepResult, error) {
	cfg = cfg.normalized()
	log := qsLog(cfg)
	splits := querysuggest.Splits(log, cfg.Splits)

	measure := func(variant string) (*mr.Result, error) {
		job := qsJob(cfg, "Prefix-5", variant, false, nil)
		_, res, err := runJob(cfg, variant, job, splits)
		return res, err
	}
	orig, err := measure(VariantOriginal)
	if err != nil {
		return nil, err
	}
	anti, err := measure(VariantAdaptive)
	if err != nil {
		return nil, err
	}

	out := &NetworkSweepResult{GbpsSteps: []float64{0.1, 0.5, 1, 10, 40}}
	for _, gbps := range out.GbpsSteps {
		cluster := costmodel.Paper()
		cluster.Net = netsim.Network{Nodes: cluster.Workers, NICBps: gbps * 1e9 / 8}
		eo, err := cluster.Estimate(orig.Stats, orig.ShufflePerPartition)
		if err != nil {
			return nil, err
		}
		ea, err := cluster.Estimate(anti.Stats, anti.ShufflePerPartition)
		if err != nil {
			return nil, err
		}
		out.Original = append(out.Original, eo)
		out.Adaptive = append(out.Adaptive, ea)
		r := 0.0
		if ea.Runtime > 0 {
			r = float64(eo.Runtime) / float64(ea.Runtime)
		}
		out.Ratio = append(out.Ratio, r)
	}
	return out, nil
}

// qsJob builds a Query-Suggestion job variant (shared with qsRun but
// returning the job for callers that need the raw result).
func qsJob(cfg Config, partitioner, variant string, withCombiner bool, mutate func(*mr.Job)) *mr.Job {
	job := qsBaseJob(cfg, partitioner, withCombiner)
	job = wrapVariant(job, variant)
	job.DiscardOutput = true
	if mutate != nil {
		mutate(job)
	}
	return job
}

// Render writes the sweep.
func (r *NetworkSweepResult) Render(w io.Writer) {
	t := Table{
		Title:  "X3 (extension) runtime benefit vs network speed (Query-Suggestion, Prefix-5)",
		Header: []string{"NIC", "Original est", "AdaptiveSH est", "benefit", "bottleneck"},
	}
	for i, gbps := range r.GbpsSteps {
		t.AddRow(Fgbps(gbps),
			Dur(r.Original[i].Runtime), Dur(r.Adaptive[i].Runtime),
			F(r.Ratio[i]), bottleneck(r.Original[i]))
	}
	t.Render(w)
}

// Fgbps renders a link speed.
func Fgbps(g float64) string {
	return strconv.FormatFloat(g, 'g', -1, 64) + "Gbps"
}

func bottleneck(e costmodel.Estimate) string {
	switch e.Runtime {
	case e.NetTime:
		return "network"
	case e.DiskTime:
		return "disk"
	default:
		return "cpu"
	}
}
