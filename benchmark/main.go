// Command benchmark is the repository's job-level benchmark: whole
// MapReduce jobs, the unwrapped Original and the anticombine.Wrap'ped
// AdaptiveSH variant, on six workloads through the in-process engine
// and a 2-worker fleet, with a separate traced pass that attributes
// each job's time to the layer that spent it. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
)

// gcPercent pins the collector for every run of the benchmark. At the
// default (100) a job's small live heap makes the collector run dozens
// of times per job; each cycle ages the engine's sync.Pools, so how many
// 4 MiB sort arenas a job re-allocates depends on where the cycles fall,
// and *_alloc_mb moves by ± 10 % between runs of the same commit. At 400
// the pools survive a job and allocation repeats to 0.1 % within a run.
// The price: the collector's share of *_cpu_s is smaller than a process
// at the default setting would pay.
const gcPercent = 400

func main() {
	var (
		opt       options
		name      = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all)")
		trace     = flag.Int("trace", 0, "1 = traced pass (per-layer metrics), 0 = untraced pass (end-to-end metrics)")
		outPath   = flag.String("out", "", "also write the full report (medians with q1, q3, n) to this file")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice and fail if any end-to-end metric moved past its bound")
		compare   = flag.Bool("compare", false, "compare two -out reports: -compare base.json new.json")
	)
	flag.Uint64Var(&opt.seed, "seed", 2014, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 0, "measured window per workload (default: run_seconds of BENCHMARK.json)")
	flag.Float64Var(&opt.scale, "scale", 1, "multiplier on every workload's input size")
	flag.Parse()
	debug.SetGCPercent(gcPercent)

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		ok, _, err := compareFiles(spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *selfcheck:
		// A metric whose own spread exceeds its bound cannot gate a change
		// of that size, so selfcheck fails on "unresolved" too.
		first, ok1 := runAll(spec, opt, false, "")
		second, ok2 := runAll(spec, opt, false, "")
		agree, unresolved := compareReports(spec, first, second)
		if !agree || unresolved > 0 || !ok1 || !ok2 {
			os.Exit(1)
		}
	default:
		if *name != "" && findWorkload(*name) == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rep, ok := runAll(spec, opt, *trace == 1, *name)
		if *outPath != "" {
			if err := writeReport(*outPath, rep); err != nil {
				fatal(err)
			}
		}
		if *name != "" {
			fmt.Println(rep.Workloads[*name].driverLine())
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// fatal is for what no job run can cause: a bad invocation, a missing
// BENCHMARK.json, a metric the benchmark measured but did not declare. A
// failed job run is a result (correct=false, exit 1), not a fatal error.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// report is what -out writes and -compare reads.
type report struct {
	Seed      uint64             `json:"seed"`
	Scale     float64            `json:"scale"`
	Traced    bool               `json:"traced"`
	Workloads map[string]*result `json:"workloads"`
}

// runAll runs the workload named only (all of them when it is empty),
// printing every metric by name with its unit, and reports whether every
// job run of every workload succeeded.
func runAll(spec *benchSpec, opt options, traced bool, only string) (*report, bool) {
	rep := &report{Seed: opt.seed, Scale: opt.scale, Traced: traced, Workloads: map[string]*result{}}
	ok := true
	for _, decl := range spec.Workloads {
		if only != "" && only != decl.Name {
			continue
		}
		w := findWorkload(decl.Name)
		if w == nil {
			fatal(fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", decl.Name))
		}
		out, err := runWorkload(w, spec, opt, traced)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		rep.Workloads[w.name] = out
		printResult(w.name, out)
		ok = ok && out.Correct
	}
	return rep, ok
}

// runWorkload runs one pass over one workload. A failed job run — an
// error, a digest mismatch, a leak — is counted and ends the pass early:
// the result then has correct=false, the attempted and failed counts and
// whatever was measured before the failure. An error is returned only for
// what is not a job failure.
func runWorkload(w *workload, spec *benchSpec, opt options, traced bool) (*result, error) {
	out := newResult()
	declared := spec.EndToEnd
	var err error
	if traced {
		declared = spec.PerLayer
		err = traceWorkload(w, opt, spec, out)
	} else {
		err = measure(w, opt, scratchDir(spec), out)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}
	if err != nil && out.Failed == 0 {
		return nil, err
	}
	if traced {
		out.set("ops_failed_frac", out.failedFrac())
	}
	return out, out.conform(declared)
}

func printResult(name string, r *result) {
	fmt.Printf("== %s: %d job runs, %d failed (ops_failed_frac %g)\n", name, r.Attempted, r.Failed, r.failedFrac())
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if m.N > 0 {
			fmt.Printf("%-40s %14.6g %-6s (q1 %.6g, q3 %.6g, n %d)\n", n, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Printf("%-40s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
}

func writeReport(path string, rep *report) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
