package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload of BENCHMARK.json at a tiny scale — one
// untraced rep and the traced pass — and holds the output to the
// declared contract: each declared metric exactly once and finite, no
// undeclared metric, every job's output equal to the reference, nothing
// leaked, one Chrome trace per workload.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, group := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, d := range group {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q has characters outside letters, digits, _ . -", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric %q declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}

	opt := options{seed: 2014, reps: 1, scale: 0.01}
	for _, decl := range spec.Workloads {
		w := findWorkload(decl.Name)
		if w == nil {
			t.Fatalf("workload %q is declared but not defined", decl.Name)
		}
		for _, pass := range []struct {
			traced   bool
			declared []metricSpec
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			// runWorkload's conform step is what rejects a missing, an
			// undeclared or a non-finite metric.
			out, err := runWorkload(w, spec, opt, pass.traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, pass.traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d job runs failed: %v",
					w.name, pass.traced, out.Correct, out.Failed, out.Attempted, out.failures)
			}
			if len(out.Metrics) != len(pass.declared) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.name, pass.traced, len(out.Metrics), len(pass.declared))
			}
			for _, d := range pass.declared {
				m, ok := out.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s: metric %s = %+v (declared unit %q)", w.name, d.Name, m, d.Unit)
				}
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(out.driverLine()), &line); err != nil || len(line.Metrics) != len(pass.declared) {
				t.Errorf("%s: driver line does not round-trip: %v", w.name, err)
			}
		}
		trace := filepath.Join(spec.outDir(), "trace-"+w.name+".json")
		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatalf("%s: no Chrome trace: %v", w.name, err)
		}
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil || len(events) < 10 {
			t.Errorf("%s: %s is not a Chrome trace array (%d events): %v", w.name, trace, len(events), err)
		}
	}
}

// TestSelfTime pins the tracer's accounting: a span's self time excludes
// its children, and all self times add up to the root span.
func TestSelfTime(t *testing.T) {
	tr := newTracer("test")
	tr.begin(layerDriver)
	tr.begin(layerMapTask)
	tr.begin(layerUserMap)
	time.Sleep(2 * time.Millisecond)
	tr.begin(layerCollect)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.end()
	tr.end()
	tr.end()

	var sum time.Duration
	for l := layer(0); l < numLayers; l++ {
		sum += tr.layers[l].self
	}
	if root := tr.layers[layerDriver].total; sum != root {
		t.Errorf("self times add up to %v, root span is %v", sum, root)
	}
	userMap := tr.layers[layerUserMap]
	if userMap.self >= userMap.total || userMap.total-userMap.self != tr.layers[layerCollect].total {
		t.Errorf("user.map self %v total %v, child mr.collect %v", userMap.self, userMap.total, tr.layers[layerCollect].total)
	}
	if len(tr.spans) != 4 || tr.spans[3].parent != 2 || tr.spans[0].parent != -1 {
		t.Errorf("kept spans %+v: want 4 with parents chained to the root", tr.spans)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "x_s", Better: "lower", Bound: 0.10}
	if w := worsening(lower, 1.0, 1.2); math.Abs(w-0.2) > 1e-9 {
		t.Errorf("lower-is-better 1.0 → 1.2 worsens by %v, want 0.2", w)
	}
	higher := metricSpec{Name: "x_per_s", Better: "higher", Bound: 0.10}
	if w := worsening(higher, 1.0, 1.2); w >= 0 {
		t.Errorf("higher-is-better 1.0 → 1.2 is an improvement, got worsening %v", w)
	}
	if w := worsening(lower, 0, 3); !math.IsInf(w, 1) {
		t.Errorf("lower-is-better 0 → 3 worsens by %v, want +Inf", w)
	}
	if w := worsening(lower, 0, 0); w != 0 {
		t.Errorf("0 → 0 worsens by %v, want 0", w)
	}
	if s := spread(medianMetric([]float64{1, 2, 3, 4, 5})); math.Abs(s-2.0/3) > 1e-9 {
		t.Errorf("spread of 1..5 = %v, want (4-2)/3", s)
	}

	steady := func(v float64) metric { return medianMetric([]float64{v, v, v}) }
	noisy := medianMetric([]float64{1, 2, 3, 4, 5})
	for _, c := range []struct {
		base, next metric
		want       string
	}{
		{steady(1), steady(1.05), "ok"},
		{steady(1), steady(1.2), "REGRESSION"},
		{steady(0), steady(3), "REGRESSION"},
		{steady(1), steady(0.5), "ok"},
		{steady(3), noisy, "unresolved"},
		{steady(1), noisy, "unresolved"}, // the spread is tested before the bound
	} {
		if got := verdict(lower, c.base, c.next); got != c.want {
			t.Errorf("verdict(%v → %v) = %s, want %s", c.base.Value, c.next.Value, got, c.want)
		}
	}
}

// TestFailedRunKeepsResult pins what a failed job run leaves behind: a
// result with correct=false and its counts, which still conforms and
// still prints a driver line.
func TestFailedRunKeepsResult(t *testing.T) {
	r := newResult()
	r.Attempted = 4
	r.Metrics["setup_s"] = medianMetric([]float64{1, 2, 3})
	r.fail("job: digest mismatch")
	declared := []metricSpec{{Name: "setup_s", Unit: "s"}, {Name: "job_wall_s", Unit: "s"}}
	if err := r.conform(declared); err != nil {
		t.Fatalf("conform after a failed run: %v", err)
	}
	if r.Correct || r.Failed != 1 || r.failedFrac() != 0.25 || len(r.Metrics) != 1 {
		t.Errorf("result after a failed run: %+v", r)
	}
	var line struct {
		Correct           *bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(r.driverLine()), &line); err != nil || line.Correct == nil || *line.Correct || line.Failed != 1 {
		t.Errorf("driver line %s: %v", r.driverLine(), err)
	}

	ok := newResult()
	if err := ok.conform(declared); err == nil {
		t.Error("a pass with no failure and a missing metric must not conform")
	}
}
