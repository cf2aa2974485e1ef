package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func compareFiles(spec *benchSpec, basePath, nextPath string) (ok bool, unresolved int, err error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, 0, err
	}
	next, err := readReport(nextPath)
	if err != nil {
		return false, 0, err
	}
	ok, unresolved = compareReports(spec, base, next)
	return ok, unresolved, nil
}

// worsening is how far next is on the wrong side of base, as a share of
// base; negative when next is better. Any move to the wrong side of a
// zero base is beyond every bound.
func worsening(d metricSpec, base, next float64) float64 {
	delta := next - base
	if d.Better == "higher" {
		delta = -delta
	}
	if base == 0 {
		if delta > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return delta / math.Abs(base)
}

// spread is a median's interquartile range as a share of the median.
func spread(m metric) float64 {
	if m.N == 0 || m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Value
}

// verdict applies d's bound to one workload's pair of medians. A metric
// whose own q1–q3 spread on either side exceeds its bound cannot resolve
// a change of that size: it is unresolved, neither unchanged nor a
// regression, whatever the medians say.
func verdict(d metricSpec, base, next metric) string {
	switch {
	case spread(base) > d.Bound || spread(next) > d.Bound:
		return "unresolved"
	case worsening(d, base.Value, next.Value) > d.Bound:
		return "REGRESSION"
	}
	return "ok"
}

// compareReports applies each end-to-end metric's bound to every
// workload of two untraced reports, one row per workload × metric. ok is
// false on any regression, missing metric or failed job run; unresolved
// counts the rows verdict could not decide.
func compareReports(spec *benchSpec, base, next *report) (ok bool, unresolved int) {
	ok = true
	fmt.Printf("%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "worse", "bound", "verdict")
	for _, decl := range spec.Workloads {
		b, n := base.Workloads[decl.Name], next.Workloads[decl.Name]
		if b == nil || n == nil {
			continue // a report of a single workload compares only that one
		}
		for _, d := range spec.EndToEnd {
			bm, bok := b.Metrics[d.Name]
			nm, nok := n.Metrics[d.Name]
			if !bok || !nok {
				fmt.Printf("%-14s %-16s missing\n", decl.Name, d.Name)
				ok = false
				continue
			}
			v := verdict(d, bm, nm)
			switch v {
			case "REGRESSION":
				ok = false
			case "unresolved":
				unresolved++
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				decl.Name, d.Name, bm.Value, nm.Value, 100*worsening(d, bm.Value, nm.Value), 100*d.Bound, v)
		}
		if n.Failed > 0 {
			fmt.Printf("%-14s %d of %d job runs failed\n", decl.Name, n.Failed, n.Attempted)
			ok = false
		}
	}
	return ok, unresolved
}
