// Command benchjson converts `go test -bench` text output (read from
// stdin) into a machine-readable JSON report. The CI bench job pipes
// each layer's benchmarks through it to publish BENCH_<layer>.json.
//
// A row gets a "before" in exactly one way: with -baseline, an earlier
// report's rows are carried into the new one as its "baseline" section
// and every benchmark present in both gets a comparison. That is also
// how a report whose old implementation no longer exists in the tree
// keeps its before/after rows: `-baseline BENCH_x.json -out BENCH_x.json`
// refreshes the after rows against the recorded before.
//
// Repeated result lines of one benchmark (go test -count N) become one
// row: the median of every figure, with n, the number of lines, and the
// quartiles of ns/op. A row compared against a baseline row with
// quartiles counts as changed only when the two q1–q3 ranges do not
// overlap.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/mr/ | benchjson -baseline BENCH_mr.json -out BENCH_mr.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name string `json:"name"`
	// Pkg is the package the row was measured in: the `pkg:` line
	// above it, so a report over several packages labels each row.
	Pkg         string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. the skew
	// benchmarks' "maxpart-B" and "skew-x"), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
	// N is how many result lines the row is the median of; NsQ1 and
	// NsQ3 are the quartiles of their ns/op.
	N    int     `json:"n,omitempty"`
	NsQ1 float64 `json:"ns_q1,omitempty"`
	NsQ3 float64 `json:"ns_q3,omitempty"`
}

// Comparison relates a benchmark's row to its -baseline row.
type Comparison struct {
	Name              string  `json:"name"`
	SpeedupX          float64 `json:"speedup_x"`
	BytesReductionPct float64 `json:"bytes_reduction_pct,omitempty"`
	AllocReductionPct float64 `json:"alloc_reduction_pct,omitempty"`
	// Changed is whether the row's ns/op quartile range misses the
	// baseline row's; against a baseline row without quartiles, whether
	// the medians differ.
	Changed bool `json:"changed"`
}

// Report is the emitted document.
type Report struct {
	Goos        string       `json:"goos,omitempty"`
	Goarch      string       `json:"goarch,omitempty"`
	CPU         string       `json:"cpu,omitempty"`
	Benchmarks  []Benchmark  `json:"benchmarks"`
	Comparisons []Comparison `json:"comparisons,omitempty"`
	// Baseline holds the before rows of a -baseline report, measured on
	// BaselineCPU.
	Baseline    []Benchmark `json:"baseline,omitempty"`
	BaselineCPU string      `json:"baseline_cpu,omitempty"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "earlier report whose rows become this report's baseline (may be the -out file)")
	flag.Parse()

	report, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *baseline != "" {
		if err := addBaseline(report, *baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parse consumes `go test -bench` output: per package, header key: value
// lines, then result lines of the form
//
//	BenchmarkName-8   100   12345 ns/op   678 B/op   9 allocs/op
//
// Each result is labelled with the package of the last `pkg:` line.
func parse(sc *bufio.Scanner) (*Report, error) {
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	r := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			r.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			r.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			r.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseResult(line)
			if ok {
				b.Pkg = pkg
				r.Benchmarks = append(r.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	r.Benchmarks = collapse(r.Benchmarks)
	return r, nil
}

// collapse makes the rows of each benchmark (one name in one package)
// a single row, in the order they first appear: the median of each
// figure over the rows that report it, with N, the number of rows, and
// the quartiles of ns/op.
func collapse(rows []Benchmark) []Benchmark {
	type id struct{ name, pkg string }
	groups := make(map[id][]Benchmark)
	var out []Benchmark
	for _, b := range rows {
		k := id{b.Name, b.Pkg}
		if groups[k] == nil {
			out = append(out, Benchmark{Name: b.Name, Pkg: b.Pkg})
		}
		groups[k] = append(groups[k], b)
	}
	for i := range out {
		b := &out[i]
		g := groups[id{b.Name, b.Pkg}]
		var iters []float64
		figures := make(map[string][]float64)
		for _, r := range g {
			iters = append(iters, float64(r.Iterations))
			for unit, v := range r.Extra {
				figures[unit] = append(figures[unit], v)
			}
			figures["ns/op"] = append(figures["ns/op"], r.NsPerOp)
			figures["B/op"] = append(figures["B/op"], r.BytesPerOp)
			figures["allocs/op"] = append(figures["allocs/op"], r.AllocsPerOp)
		}
		b.Iterations, b.N = int64(quantile(iters, 0.5)), len(g)
		for unit, vs := range figures {
			b.set(unit, quantile(vs, 0.5))
		}
		b.NsQ1, b.NsQ3 = quantile(figures["ns/op"], 0.25), quantile(figures["ns/op"], 0.75)
	}
	return out
}

// quantile sorts vs and returns its p-quantile, interpolated linearly
// between ranks as scripts/e2e_pairs.sh does (the median of an even
// count is the mean of the middle two).
func quantile(vs []float64, p float64) float64 {
	sort.Float64s(vs)
	x := p * float64(len(vs)-1)
	i := int(x)
	if i+1 >= len(vs) {
		return vs[i]
	}
	return vs[i] + (x-float64(i))*(vs[i+1]-vs[i])
}

func parseResult(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
			b.set(fields[i+1], v)
		}
	}
	return b, true
}

// set records v as the row's figure in unit.
func (b *Benchmark) set(unit string, v float64) {
	switch unit {
	case "ns/op":
		b.NsPerOp = v
	case "B/op":
		b.BytesPerOp = v
	case "allocs/op":
		b.AllocsPerOp = v
	default:
		if b.Extra == nil {
			b.Extra = make(map[string]float64)
		}
		b.Extra[unit] = v
	}
}

// comparison relates a benchmark's before and after rows.
func comparison(name string, before, after Benchmark) Comparison {
	c := Comparison{Name: name}
	if after.NsPerOp > 0 {
		c.SpeedupX = before.NsPerOp / after.NsPerOp
	}
	if before.BytesPerOp > 0 {
		c.BytesReductionPct = 100 * (1 - after.BytesPerOp/before.BytesPerOp)
	}
	if before.AllocsPerOp > 0 {
		c.AllocReductionPct = 100 * (1 - after.AllocsPerOp/before.AllocsPerOp)
	}
	if before.NsQ3 > 0 {
		c.Changed = after.NsQ1 > before.NsQ3 || after.NsQ3 < before.NsQ1
	} else {
		c.Changed = after.NsPerOp != before.NsPerOp
	}
	return c
}

// addBaseline reads the report at path and carries its baseline rows —
// or, when it has none, its benchmark rows — into r, comparing every
// benchmark of r that has one.
func addBaseline(r *Report, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var old Report
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	r.Baseline, r.BaselineCPU = old.Baseline, old.BaselineCPU
	if len(r.Baseline) == 0 {
		r.Baseline, r.BaselineCPU = old.Benchmarks, old.CPU
	}
	before := make(map[string]Benchmark, len(r.Baseline))
	for _, b := range r.Baseline {
		before[b.Name] = b
	}
	for _, b := range r.Benchmarks {
		if old, ok := before[b.Name]; ok {
			r.Comparisons = append(r.Comparisons, comparison(b.Name, old, b))
		}
	}
	return nil
}
