package experiments

import (
	"io"

	"repro/internal/anticombine"
	"repro/internal/datagen"
	"repro/internal/workloads/scanshare"
	"repro/internal/workloads/wordcount"
)

// ScanShareResult is extension experiment X1, the scan-sharing scenario
// §1 motivates: N merged queries each duplicate every scanned record;
// Anti-Combining collapses the duplicates to at most one record per
// touched reduce task.
type ScanShareResult struct {
	Queries  int
	Original RunMetrics
	Adaptive RunMetrics

	RecordsFactor float64
	BytesFactor   float64
}

// ScanShare runs X1.
func ScanShare(cfg Config) (*ScanShareResult, error) {
	cfg = cfg.normalized()
	cloud := datagen.NewCloud(datagen.CloudConfig{Seed: cfg.Seed, Records: cfg.n(5000)})
	scfg := scanshare.Config{Queries: 12, Reducers: cfg.Reducers}
	splits := scanshare.Splits(cloud, cfg.Splits)

	run := func(name string, wrap bool) (RunMetrics, error) {
		job := scanshare.NewJob(scfg)
		if wrap {
			job = anticombine.Wrap(job, anticombine.AdaptiveInf())
		}
		job.DiscardOutput = true
		m, _, err := runJob(cfg, name, job, splits)
		return m, err
	}
	orig, err := run(VariantOriginal, false)
	if err != nil {
		return nil, err
	}
	anti, err := run(VariantAdaptive, true)
	if err != nil {
		return nil, err
	}
	return &ScanShareResult{
		Queries:       scfg.Queries,
		Original:      orig,
		Adaptive:      anti,
		RecordsFactor: factor(orig.MapOutputRecords, anti.MapOutputRecords),
		BytesFactor:   factor(orig.MapOutputBytes, anti.MapOutputBytes),
	}, nil
}

// Render writes X1.
func (r *ScanShareResult) Render(w io.Writer) {
	t := Table{
		Title:  "X1 (extension, §1 motivation) scan sharing across merged queries",
		Header: []string{"variant", "mapOutRecords", "mapOutBytes", "CPU", "est runtime"},
	}
	for _, m := range []RunMetrics{r.Original, r.Adaptive} {
		t.AddRow(m.Name, itoa(m.MapOutputRecords), Bytes(m.MapOutputBytes), Dur(m.CPU), Dur(m.Est.Runtime))
	}
	t.AddRow("factor", F(r.RecordsFactor), F(r.BytesFactor), "", "")
	t.Render(w)
}

// CrossCallResult is extension experiment X2, the paper's future work
// (§9): EagerSH sharing across the Map calls of one task.
type CrossCallResult struct {
	Windows []int
	Metrics []RunMetrics
}

// CrossCall runs X2 over a WordCount without combiner (to isolate the
// encoding effect).
func CrossCall(cfg Config) (*CrossCallResult, error) {
	cfg = cfg.normalized()
	text := datagen.NewRandomText(datagen.RandomTextConfig{
		Seed: cfg.Seed, Lines: cfg.n(4000), WordsPerLine: 10, VocabWords: 5000,
	})
	splits := wordcount.Splits(text, cfg.Splits)
	out := &CrossCallResult{Windows: []int{0, 4, 16, 64, 256}}
	for _, window := range out.Windows {
		job := wordcount.NewJob(cfg.Reducers)
		job.NewCombiner = nil
		job = anticombine.Wrap(job, anticombine.Options{
			Strategy:        anticombine.EagerOnly,
			CrossCallWindow: window,
		})
		job.DiscardOutput = true
		m, _, err := runJob(cfg, itoa(int64(window)), job, splits)
		if err != nil {
			return nil, err
		}
		out.Metrics = append(out.Metrics, m)
	}
	return out, nil
}

// Render writes X2.
func (r *CrossCallResult) Render(w io.Writer) {
	t := Table{
		Title:  "X2 (extension, §9 future work) EagerSH sharing across Map calls (WordCount, no combiner)",
		Header: []string{"window", "mapOutRecords", "mapOutBytes", "vs per-call"},
	}
	base := r.Metrics[0].MapOutputBytes
	for i, window := range r.Windows {
		m := r.Metrics[i]
		t.AddRow(itoa(int64(window)), itoa(m.MapOutputRecords), Bytes(m.MapOutputBytes),
			F(factor(base, m.MapOutputBytes)))
	}
	t.Render(w)
}
