package experiments

import (
	"io"
	"time"

	"repro/internal/anticombine"
	"repro/internal/workloads/cpuwork"
	"repro/internal/workloads/querysuggest"
)

// CPUThresholdResult is Figure 11: total CPU time as the Map function
// gets artificially more expensive (the first 25000·x Fibonacci numbers
// per call). Adaptive-∞ wins at low Map cost by optimizing output size,
// loses at high Map cost where LazySH's reducer-side re-execution
// doubles the expensive calls; Adaptive-α (T = 400 µs) tracks the better
// of the two, converging to Adaptive-0 as calls get pricier.
type CPUThresholdResult struct {
	// Xs are the busy-work multipliers.
	Xs []int
	// Variants are the threshold configurations, in plot order.
	Variants []string
	// CPU[variant][i] is the total CPU for Xs[i].
	CPU map[string][]time.Duration
	// LazyShare[variant][i] is the fraction of encoded partitions that
	// chose LazySH, showing the threshold at work.
	LazyShare map[string][]float64
}

// cpuVariants maps plot names to Anti-Combining options.
func cpuVariants() (names []string, opts map[string]anticombine.Options) {
	names = []string{"Adaptive-0", "Adaptive-a", "Adaptive-inf"}
	opts = map[string]anticombine.Options{
		"Adaptive-0":   anticombine.Adaptive0(),
		"Adaptive-a":   anticombine.AdaptiveAlpha(),
		"Adaptive-inf": anticombine.AdaptiveInf(),
	}
	return names, opts
}

// CPUThreshold runs E7 (Figure 11).
func CPUThreshold(cfg Config) (*CPUThresholdResult, error) {
	cfg = cfg.normalized()
	// The paper sweeps x = 0..16 on a 2011-era Xeon; today's cores run
	// the Fibonacci loop roughly an order of magnitude faster, so the
	// sweep extends to x = 64 to cross the same 400 µs threshold, on a
	// smaller log.
	log := qsLog(Config{Scale: cfg.Scale / 4, Seed: cfg.Seed, Reducers: cfg.Reducers}.normalized())
	splits := querysuggest.Splits(log, cfg.Splits)
	xs := []int{0, 2, 8, 32, 64}

	names, opts := cpuVariants()
	out := &CPUThresholdResult{
		Xs:        xs,
		Variants:  names,
		CPU:       map[string][]time.Duration{},
		LazyShare: map[string][]float64{},
	}
	for _, name := range names {
		for _, x := range xs {
			job := querysuggest.NewJob(querysuggest.Config{
				Partitioner: querysuggest.PrefixPartitioner{K: 5},
				Reducers:    cfg.Reducers,
			}, false)
			job = cpuwork.WrapJob(job, x)
			job = anticombine.Wrap(job, opts[name])
			job.DiscardOutput = true
			m, _, err := runJob(cfg, name, job, splits)
			if err != nil {
				return nil, err
			}
			out.CPU[name] = append(out.CPU[name], m.CPU)
			lazy := m.Extra[anticombine.CounterLazyRecords]
			total := lazy + m.Extra[anticombine.CounterEagerRecords] +
				m.Extra[anticombine.CounterPlainRecords]
			share := 0.0
			if total > 0 {
				share = float64(lazy) / float64(total)
			}
			out.LazyShare[name] = append(out.LazyShare[name], share)
		}
	}
	return out, nil
}

// Render writes the figure as one series per variant.
func (r *CPUThresholdResult) Render(w io.Writer) {
	t := Table{
		Title:  "E7 (Fig. 11) total CPU time vs extra Map work (Fibonacci x)",
		Header: []string{"x"},
	}
	for _, v := range r.Variants {
		t.Header = append(t.Header, v, v+" lazy%")
	}
	for i, x := range r.Xs {
		row := []string{itoa(int64(x))}
		for _, v := range r.Variants {
			row = append(row, Dur(r.CPU[v][i]), Pct(100*r.LazyShare[v][i]))
		}
		t.AddRow(row...)
	}
	t.Render(w)
}
