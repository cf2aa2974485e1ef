package experiments

import (
	"io"

	"repro/internal/anticombine"
	"repro/internal/datagen"
	"repro/internal/mr"
	"repro/internal/workloads/pagerank"
	"repro/internal/workloads/wordcount"
)

// WordCountResult is §7.7.1: WordCount with its highly effective
// combiner. The paper measured disk reads ÷9.1 and writes ÷6.3,
// pre-combine map output records ÷7, CPU ÷1.7, runtime ÷1.44, and a
// shuffle only a few flag bytes larger than Original's.
type WordCountResult struct {
	Original RunMetrics
	Adaptive RunMetrics

	DiskReadFactor    float64
	DiskWriteFactor   float64
	RecordsFactor     float64 // pre-combine map output records
	CPUFactor         float64
	RuntimeFactor     float64
	ShuffleDeltaBytes int64
}

// WordCount runs E8 (§7.7.1): the original keeps its combiner; the
// Anti-Combined variant keeps it too (C=1, transformed), since §6.2
// found highly effective combiners still benefit.
func WordCount(cfg Config) (*WordCountResult, error) {
	cfg = cfg.normalized()
	// Hadoop's RandomTextWriter emits long multi-word records; the line
	// length controls how many words a single Map call contributes per
	// partition, which is exactly EagerSH's sharing opportunity.
	text := datagen.NewRandomText(datagen.RandomTextConfig{
		Seed:         cfg.Seed,
		Lines:        cfg.n(4000),
		WordsPerLine: 60,
	})
	splits := wordcount.Splits(text, cfg.Splits)
	run := func(name string, wrap bool) (RunMetrics, error) {
		job := wordcount.NewJob(cfg.Reducers)
		if wrap {
			job = anticombine.Wrap(job, anticombine.Options{
				Strategy:    anticombine.Adaptive,
				MapCombiner: true,
			})
		}
		job.DiscardOutput = true
		// The paper's 360 GB input dwarfed Hadoop's sort buffers, so map
		// tasks spilled and merged repeatedly; scale the buffer down with
		// the data so the same pressure (and Anti-Combining's fewer
		// records per spill) shows at laptop scale.
		job.SortBufferBytes = 32 << 10
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
	return &WordCountResult{
		Original:        orig,
		Adaptive:        anti,
		DiskReadFactor:  factor(orig.DiskRead, anti.DiskRead),
		DiskWriteFactor: factor(orig.DiskWrite, anti.DiskWrite),
		// Original's pre-combine records vs the encoded records
		// AdaptiveSH hands the (transformed) combiner.
		RecordsFactor:     factor(orig.MapOutputRecords, anti.MapOutputRecords),
		CPUFactor:         factor(int64(orig.CPU), int64(anti.CPU)),
		RuntimeFactor:     factor(int64(orig.Est.Runtime), int64(anti.Est.Runtime)),
		ShuffleDeltaBytes: anti.ShuffleBytes - orig.ShuffleBytes,
	}, nil
}

// Render writes the §7.7.1 comparison.
func (r *WordCountResult) Render(w io.Writer) {
	t := Table{
		Title:  "E8 (§7.7.1) WordCount with effective Combiner",
		Header: []string{"variant", "mapOutRecs(preCB)", "transfer", "diskRead", "diskWrite", "CPU", "est runtime"},
	}
	for _, m := range []RunMetrics{r.Original, r.Adaptive} {
		t.AddRow(m.Name, itoa(m.MapOutputRecords), Bytes(m.ShuffleBytes),
			Bytes(m.DiskRead), Bytes(m.DiskWrite), Dur(m.CPU), Dur(m.Est.Runtime))
	}
	t.AddRow("factor", F(r.RecordsFactor), Bytes(r.ShuffleDeltaBytes)+" delta",
		F(r.DiskReadFactor), F(r.DiskWriteFactor), F(r.CPUFactor), F(r.RuntimeFactor))
	t.Render(w)
}

// PageRankResult is §7.7.2: five PageRank iterations on a skewed graph.
// The paper measured shuffle ÷2.7, disk reads ÷3.5, writes ÷3.2,
// CPU ÷2.8, runtime ÷2.4.
type PageRankResult struct {
	Original RunMetrics
	Adaptive RunMetrics

	ShuffleFactor   float64
	DiskReadFactor  float64
	DiskWriteFactor float64
	CPUFactor       float64
	RuntimeFactor   float64
}

// PageRank runs E9 (§7.7.2), accumulating metrics across iterations.
func PageRank(cfg Config) (*PageRankResult, error) {
	cfg = cfg.normalized()
	g := datagen.NewGraph(datagen.GraphConfig{
		Seed:  cfg.Seed,
		Nodes: cfg.n(3000),
	})
	const iterations = 5
	run := func(name string, wrap bool) (RunMetrics, error) {
		recs := pagerank.InitialRecords(g)
		var total RunMetrics
		total.Name = name
		for it := 0; it < iterations; it++ {
			// The rank job X7 runs, without its map-side combiner:
			// E9 measures the contribution shuffle Anti-Combining
			// shrinks, so the Original ships every contribution.
			job := pagerank.NewRankJob(len(g.Out), cfg.Reducers)
			job.NewCombiner = nil
			if wrap {
				job = anticombine.Wrap(job, anticombine.AdaptiveInf())
			}
			// Like §7.7.1, buffer pressure is scaled with the data so the
			// paper's spill/merge disk traffic exists at laptop scale.
			job.SortBufferBytes = 32 << 10
			m, res, err := runJob(cfg, name, job, mr.SplitRecords(recs, cfg.Splits))
			if err != nil {
				return RunMetrics{}, err
			}
			total.accumulate(m)
			recs = res.SortedOutput()
		}
		return total, nil
	}
	orig, err := run(VariantOriginal, false)
	if err != nil {
		return nil, err
	}
	anti, err := run(VariantAdaptive, true)
	if err != nil {
		return nil, err
	}
	return &PageRankResult{
		Original:        orig,
		Adaptive:        anti,
		ShuffleFactor:   factor(orig.ShuffleBytes, anti.ShuffleBytes),
		DiskReadFactor:  factor(orig.DiskRead, anti.DiskRead),
		DiskWriteFactor: factor(orig.DiskWrite, anti.DiskWrite),
		CPUFactor:       factor(int64(orig.CPU), int64(anti.CPU)),
		RuntimeFactor:   factor(int64(orig.Est.Runtime), int64(anti.Est.Runtime)),
	}, nil
}

// Render writes the §7.7.2 comparison.
func (r *PageRankResult) Render(w io.Writer) {
	t := Table{
		Title:  "E9 (§7.7.2) PageRank, 5 iterations on a power-law graph",
		Header: []string{"variant", "transfer", "diskRead", "diskWrite", "CPU", "est runtime"},
	}
	for _, m := range []RunMetrics{r.Original, r.Adaptive} {
		t.AddRow(m.Name, Bytes(m.ShuffleBytes), Bytes(m.DiskRead), Bytes(m.DiskWrite),
			Dur(m.CPU), Dur(m.Est.Runtime))
	}
	t.AddRow("factor", F(r.ShuffleFactor), F(r.DiskReadFactor), F(r.DiskWriteFactor),
		F(r.CPUFactor), F(r.RuntimeFactor))
	t.Render(w)
}
