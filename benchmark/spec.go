package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one declared metric of BENCHMARK.json. Bound is the
// share of the baseline's median by which an end-to-end metric may
// worsen; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the single source of the workload and
// metric names, so the program, its smoke test and -compare cannot
// drift from the declared contract.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	root string // directory holding BENCHMARK.json
}

// loadSpec finds BENCHMARK.json in the working directory (the driver
// runs from the checkout root) or its parent (go test runs inside
// benchmark/).
func loadSpec() (*benchSpec, error) {
	for _, root := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		spec := &benchSpec{root: root}
		if err := json.Unmarshal(raw, spec); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return spec, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// outDir is where traces, reports and the fleet workers' scratch
// directories go; it is git-ignored.
func (s *benchSpec) outDir() string { return filepath.Join(s.root, "benchmark", "out") }

// metric is one reported value. Q1, Q3 and N describe the samples a
// median was taken over; they are zero for counts read once.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is one workload's outcome. Attempted and Failed count job
// runs: reference, warm-up, measured and traced.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64) { r.Metrics[name] = metric{Value: v} }

// fail records one failed job run (or hygiene check) with its reason.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// failedFrac is failed ÷ attempted job runs of this pass.
func (r *result) failedFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// conform keeps exactly the declared metrics, stamping their units. An
// undeclared metric, a non-finite value, or a declared metric missing
// from a pass in which no job run failed is a bug in the benchmark,
// reported as an error. After a failed job run the metrics the pass did
// not reach stay absent.
func (r *result) conform(declared []metricSpec) error {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		m, ok := r.Metrics[d.Name]
		if !ok && r.Failed > 0 {
			continue
		}
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		m.Unit = d.Unit
		out[d.Name] = m
		delete(r.Metrics, d.Name)
	}
	for name := range r.Metrics {
		return fmt.Errorf("metric %s measured but not declared in BENCHMARK.json", name)
	}
	r.Metrics = out
	r.Correct = r.Failed == 0
	return nil
}

// driverLine is the contract's last line: the four keys, and value and
// unit only per metric.
func (r *result) driverLine() string {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(r.Metrics))
	for name, m := range r.Metrics {
		ms[name] = vu{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}

// quartiles returns the first quartile, median and third quartile of
// xs by linear interpolation between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func medianMetric(xs []float64) metric {
	q1, med, q3 := quartiles(xs)
	return metric{Value: med, Q1: q1, Q3: q3, N: len(xs)}
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}
