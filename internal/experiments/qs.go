package experiments

import (
	"io"
	"strconv"

	"repro/internal/anticombine"
	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/mr"
	"repro/internal/workloads/querysuggest"
)

// qsPartitioners are §7.2's three partition functions, in figure order.
var qsPartitioners = []string{"Hash", "Prefix-5", "Prefix-1"}

// qsStrategies are the figure's four bars.
var qsStrategies = []string{VariantOriginal, VariantEager, VariantLazy, VariantAdaptive}

func qsPartitioner(name string) mr.Partitioner {
	switch name {
	case "Hash":
		return mr.HashPartitioner{}
	case "Prefix-5":
		return querysuggest.PrefixPartitioner{K: 5}
	case "Prefix-1":
		return querysuggest.PrefixPartitioner{K: 1}
	}
	panic("experiments: unknown partitioner " + name)
}

func qsLog(cfg Config) *datagen.QueryLog {
	return datagen.NewQueryLog(datagen.QueryLogConfig{
		Seed:    cfg.Seed,
		Queries: cfg.n(20000),
	})
}

// qsBaseJob builds the unwrapped Query-Suggestion job.
func qsBaseJob(cfg Config, partitioner string, withCombiner bool) *mr.Job {
	return querysuggest.NewJob(querysuggest.Config{
		Partitioner: qsPartitioner(partitioner),
		Reducers:    cfg.Reducers,
	}, withCombiner)
}

// qsRun executes one Query-Suggestion configuration.
func qsRun(cfg Config, splits []mr.Split, partitioner, variant string,
	withCombiner bool, mutate func(*mr.Job)) (RunMetrics, error) {
	job := qsJob(cfg, partitioner, variant, withCombiner, mutate)
	m, _, err := runJob(cfg, variant, job, splits)
	return m, err
}

// QSMapOutputResult is Figure 9: total Map output size per partitioner
// and strategy (no combiner, no compression). The paper observed up to
// 27× reduction, AdaptiveSH best everywhere except Prefix-1 where pure
// LazySH wins by the flag bytes.
type QSMapOutputResult struct {
	Partitioners []string
	Strategies   []string
	// Metrics[partitioner][strategy]
	Metrics map[string]map[string]RunMetrics
}

// QSMapOutput runs E2 (Figure 9).
func QSMapOutput(cfg Config) (*QSMapOutputResult, error) {
	cfg = cfg.normalized()
	log := qsLog(cfg)
	splits := querysuggest.Splits(log, cfg.Splits)
	out := &QSMapOutputResult{
		Partitioners: qsPartitioners,
		Strategies:   qsStrategies,
		Metrics:      map[string]map[string]RunMetrics{},
	}
	for _, p := range qsPartitioners {
		out.Metrics[p] = map[string]RunMetrics{}
		for _, s := range qsStrategies {
			m, err := qsRun(cfg, splits, p, s, false, nil)
			if err != nil {
				return nil, err
			}
			out.Metrics[p][s] = m
		}
	}
	return out, nil
}

// Render writes the figure as a table of map output sizes.
func (r *QSMapOutputResult) Render(w io.Writer) {
	t := Table{
		Title:  "E2 (Fig. 9) Query-Suggestion total Map output size",
		Header: append([]string{"partitioner"}, r.Strategies...),
	}
	for _, p := range r.Partitioners {
		row := []string{p}
		for _, s := range r.Strategies {
			row = append(row, Bytes(r.Metrics[p][s].MapOutputBytes))
		}
		t.AddRow(row...)
	}
	t.Render(w)
	t2 := Table{
		Title:  "reduction vs Original",
		Header: append([]string{"partitioner"}, r.Strategies[1:]...),
	}
	for _, p := range r.Partitioners {
		row := []string{p}
		orig := r.Metrics[p][VariantOriginal].MapOutputBytes
		for _, s := range r.Strategies[1:] {
			row = append(row, F(factor(orig, r.Metrics[p][s].MapOutputBytes)))
		}
		t2.AddRow(row...)
	}
	t2.Render(w)
}

// QSCombinerResult is §7.3: the original program's combiner is barely
// effective (~12% in the paper) because map task inputs hold many
// distinct queries, while Anti-Combining (with C=0) keeps its full
// reduction and the combiner instead collapses Shared in the reduce
// phase, eliminating Shared spills.
type QSCombinerResult struct {
	Original           RunMetrics
	OriginalCombiner   RunMetrics
	AdaptiveNoCombiner RunMetrics // no combiner available at all
	AdaptiveCombiner   RunMetrics // combiner present, C=0, Shared combine on

	CombinerReductionPct float64
}

// QSCombiner runs E3 (§7.3). A small Shared memory budget is used so
// the Shared-spill effect is visible at laptop scale.
func QSCombiner(cfg Config) (*QSCombinerResult, error) {
	cfg = cfg.normalized()
	log := qsLog(cfg)
	splits := querysuggest.Splits(log, cfg.Splits)
	const part = "Prefix-5"

	orig, err := qsRun(cfg, splits, part, VariantOriginal, false, nil)
	if err != nil {
		return nil, err
	}
	origCB, err := qsRun(cfg, splits, part, VariantOriginal, true, nil)
	if err != nil {
		return nil, err
	}

	antiJob := func(withCombiner bool) *mr.Job {
		job := querysuggest.NewJob(querysuggest.Config{
			Partitioner: qsPartitioner(part), Reducers: cfg.Reducers,
		}, withCombiner)
		// Without a combiner the paper's reduce phase does not combine:
		// the declared reducer must not fold either.
		w := anticombine.Wrap(job, anticombine.Options{
			Strategy: anticombine.Adaptive, SharedMemLimitBytes: 64 << 10,
			DisableSharedCombine: !withCombiner,
		})
		w.DiscardOutput = true
		return w
	}
	antiNo, _, err := runJob(cfg, "AdaptiveSH", antiJob(false), splits)
	if err != nil {
		return nil, err
	}
	antiCB, _, err := runJob(cfg, "AdaptiveSH-CB", antiJob(true), splits)
	if err != nil {
		return nil, err
	}
	return &QSCombinerResult{
		Original:             orig,
		OriginalCombiner:     origCB,
		AdaptiveNoCombiner:   antiNo,
		AdaptiveCombiner:     antiCB,
		CombinerReductionPct: -pct(origCB.ShuffleBytes, orig.ShuffleBytes),
	}, nil
}

// Render writes the §7.3 comparison.
func (r *QSCombinerResult) Render(w io.Writer) {
	t := Table{
		Title:  "E3 (§7.3) Query-Suggestion with Combiner (Prefix-5)",
		Header: []string{"variant", "mapOutBytes", "transfer", "sharedSpills"},
	}
	rows := []struct {
		name string
		m    RunMetrics
	}{
		{"Original", r.Original},
		{"Original+CB", r.OriginalCombiner},
		{"AdaptiveSH (C=0, no combiner)", r.AdaptiveNoCombiner},
		{"AdaptiveSH-CB (C=0, Shared combine)", r.AdaptiveCombiner},
	}
	for _, row := range rows {
		t.AddRow(row.name, Bytes(row.m.MapOutputBytes), Bytes(row.m.ShuffleBytes),
			itoa(row.m.SharedSpills))
	}
	t.Render(w)
}

// QSCompressionResult is Figure 10: map output (on-the-wire, i.e.
// compressed) sizes with Combiner and gzip compression enabled.
// Anti-Combining still beats Original for every partitioner.
type QSCompressionResult struct {
	Partitioners []string
	Strategies   []string
	Metrics      map[string]map[string]RunMetrics
}

// QSCompression runs E4 (Figure 10).
func QSCompression(cfg Config) (*QSCompressionResult, error) {
	cfg = cfg.normalized()
	log := qsLog(cfg)
	splits := querysuggest.Splits(log, cfg.Splits)
	out := &QSCompressionResult{
		Partitioners: qsPartitioners,
		Strategies:   qsStrategies,
		Metrics:      map[string]map[string]RunMetrics{},
	}
	gz := codec.Gzip{}
	for _, p := range qsPartitioners {
		out.Metrics[p] = map[string]RunMetrics{}
		for _, s := range qsStrategies {
			// The original runs with its combiner; Anti-Combining sets
			// C=0 (§7.3) so the variants run without the map-phase
			// combiner but with compressed output.
			withCombiner := s == VariantOriginal
			m, err := qsRun(cfg, splits, p, s, withCombiner, func(j *mr.Job) { j.Codec = gz })
			if err != nil {
				return nil, err
			}
			out.Metrics[p][s] = m
		}
	}
	return out, nil
}

// Render writes the compressed transfer sizes.
func (r *QSCompressionResult) Render(w io.Writer) {
	t := Table{
		Title:  "E4 (Fig. 10) Query-Suggestion compressed map output (Combiner + gzip)",
		Header: append([]string{"partitioner"}, r.Strategies...),
	}
	for _, p := range r.Partitioners {
		row := []string{p}
		for _, s := range r.Strategies {
			row = append(row, Bytes(r.Metrics[p][s].ShuffleBytes))
		}
		t.AddRow(row...)
	}
	t.Render(w)
}

// QSCodecTableResult is Table 1: cost breakdown under different
// compression codecs for Prefix-5. The paper's spectrum: bzip2 (here
// BWSC) best ratio / worst CPU, snappy the reverse, AdaptiveSH+gzip
// beating all on every column.
type QSCodecTableResult struct {
	Rows []RunMetrics
}

// QSCodecTable runs E5 (Table 1).
func QSCodecTable(cfg Config) (*QSCodecTableResult, error) {
	cfg = cfg.normalized()
	log := qsLog(cfg)
	splits := querysuggest.Splits(log, cfg.Splits)
	const part = "Prefix-5"
	var rows []RunMetrics
	for _, name := range []string{"deflate", "gzip", "bwsc", "snappy"} {
		c, err := codec.ByName(name)
		if err != nil {
			return nil, err
		}
		label := name
		if name == "bwsc" {
			label = "bwsc(bzip2)"
		}
		m, err := qsRun(cfg, splits, part, VariantOriginal, true, func(j *mr.Job) { j.Codec = c })
		if err != nil {
			return nil, err
		}
		m.Name = label
		rows = append(rows, m)
	}
	m, err := qsRun(cfg, splits, part, VariantAdaptive, false, func(j *mr.Job) { j.Codec = codec.Gzip{} })
	if err != nil {
		return nil, err
	}
	m.Name = "AdaptiveSH+gzip"
	rows = append(rows, m)
	return &QSCodecTableResult{Rows: rows}, nil
}

// Render writes Table 1.
func (r *QSCodecTableResult) Render(w io.Writer) {
	t := Table{
		Title:  "E5 (Table 1) Prefix-5 cost breakdown per compression technique",
		Header: []string{"codec", "diskRead", "diskWrite", "mapOutSize(wire)", "CPU"},
	}
	for _, m := range r.Rows {
		t.AddRow(m.Name, Bytes(m.DiskRead), Bytes(m.DiskWrite), Bytes(m.ShuffleBytes), Dur(m.CPU))
	}
	t.Render(w)
}

// QSCostBreakdownResult is Table 2: total CPU and disk for Original and
// AdaptiveSH, plain / with Combiner (-CB) / with compression (-CP), plus
// the Shared spill counts §7.5 discusses (many for AdaptiveSH, ~none for
// AdaptiveSH-CB).
type QSCostBreakdownResult struct {
	Rows []RunMetrics
}

// QSCostBreakdown runs E6 (Table 2).
func QSCostBreakdown(cfg Config) (*QSCostBreakdownResult, error) {
	cfg = cfg.normalized()
	log := qsLog(cfg)
	splits := querysuggest.Splits(log, cfg.Splits)
	const part = "Prefix-5"
	gz := codec.Gzip{}
	// Only the -CB row combines in the reduce phase, as in the paper: the
	// others keep the declared reducer off the fold too.
	smallShared := func(combine bool) *anticombine.Options {
		return &anticombine.Options{Strategy: anticombine.Adaptive,
			SharedMemLimitBytes: 64 << 10, DisableSharedCombine: !combine}
	}

	type spec struct {
		name         string
		variant      string
		withCombiner bool
		mutate       func(*mr.Job)
		opts         *anticombine.Options
	}
	specs := []spec{
		{name: "Original", variant: VariantOriginal},
		{name: "Original-CB", variant: VariantOriginal, withCombiner: true},
		{name: "Original-CP", variant: VariantOriginal, mutate: func(j *mr.Job) { j.Codec = gz }},
		{name: "AdaptiveSH", variant: VariantAdaptive, opts: smallShared(false)},
		{name: "AdaptiveSH-CB", variant: VariantAdaptive, withCombiner: true, opts: smallShared(true)},
		{name: "AdaptiveSH-CP", variant: VariantAdaptive, mutate: func(j *mr.Job) { j.Codec = gz },
			opts: smallShared(false)},
	}
	var rows []RunMetrics
	for _, s := range specs {
		job := querysuggest.NewJob(querysuggest.Config{
			Partitioner: qsPartitioner(part), Reducers: cfg.Reducers,
		}, s.withCombiner)
		if s.opts != nil {
			job = anticombine.Wrap(job, *s.opts)
		}
		job.DiscardOutput = true
		if s.mutate != nil {
			s.mutate(job)
		}
		m, _, err := runJob(cfg, s.name, job, splits)
		if err != nil {
			return nil, err
		}
		rows = append(rows, m)
	}
	return &QSCostBreakdownResult{Rows: rows}, nil
}

// Render writes Table 2.
func (r *QSCostBreakdownResult) Render(w io.Writer) {
	t := Table{
		Title:  "E6 (Table 2) Query-Suggestion total cost breakdown (Prefix-5)",
		Header: []string{"algorithm", "CPU", "diskRead", "diskWrite", "sharedSpills"},
	}
	for _, m := range r.Rows {
		t.AddRow(m.Name, Dur(m.CPU), Bytes(m.DiskRead), Bytes(m.DiskWrite), itoa(m.SharedSpills))
	}
	t.Render(w)
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
