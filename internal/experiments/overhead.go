package experiments

import (
	"io"

	"repro/internal/datagen"
	"repro/internal/workloads/sortwl"
)

// OverheadResult is §7.1: Anti-Combining's cost on the Sort workload,
// where no sharing opportunities exist. The paper measured +0.2% disk,
// +0.15% transfer, +7.8% CPU, +1.7% runtime.
type OverheadResult struct {
	Original RunMetrics
	Adaptive RunMetrics

	DiskDeltaPct     float64
	TransferDeltaPct float64
	CPUDeltaPct      float64
	RuntimeDeltaPct  float64
}

// Overhead runs E1.
func Overhead(cfg Config) (*OverheadResult, error) {
	cfg = cfg.normalized()
	text := datagen.NewRandomText(datagen.RandomTextConfig{
		Seed:  cfg.Seed,
		Lines: cfg.n(20000),
	})
	splits := sortwl.Splits(text, cfg.Splits)
	run := func(name, variant string) (RunMetrics, error) {
		job := wrapVariant(sortwl.NewJob(cfg.Reducers), variant)
		job.DiscardOutput = true
		m, _, err := runJob(cfg, name, job, splits)
		return m, err
	}
	orig, err := run(VariantOriginal, VariantOriginal)
	if err != nil {
		return nil, err
	}
	adaptive, err := run(VariantAdaptive, VariantAdaptive)
	if err != nil {
		return nil, err
	}
	return &OverheadResult{
		Original:         orig,
		Adaptive:         adaptive,
		DiskDeltaPct:     pct(adaptive.DiskRead+adaptive.DiskWrite, orig.DiskRead+orig.DiskWrite),
		TransferDeltaPct: pct(adaptive.ShuffleBytes, orig.ShuffleBytes),
		CPUDeltaPct:      pct(int64(adaptive.CPU), int64(orig.CPU)),
		RuntimeDeltaPct:  pct(int64(adaptive.Est.Runtime), int64(orig.Est.Runtime)),
	}, nil
}

// Render writes the paper-style comparison.
func (r *OverheadResult) Render(w io.Writer) {
	t := Table{
		Title:  "E1 (§7.1) Anti-Combining overhead on Sort (no sharing opportunities)",
		Header: []string{"variant", "mapOutBytes", "transfer", "disk r+w", "CPU", "est runtime"},
	}
	for _, m := range []RunMetrics{r.Original, r.Adaptive} {
		t.AddRow(m.Name, Bytes(m.MapOutputBytes), Bytes(m.ShuffleBytes),
			Bytes(m.DiskRead+m.DiskWrite), Dur(m.CPU), Dur(m.Est.Runtime))
	}
	t.AddRow("delta", "", Pct(r.TransferDeltaPct), Pct(r.DiskDeltaPct),
		Pct(r.CPUDeltaPct), Pct(r.RuntimeDeltaPct))
	t.Render(w)
}
