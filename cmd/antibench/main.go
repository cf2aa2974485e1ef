// Command antibench regenerates the paper's evaluation (§7): every
// table and figure has an experiment id, and each run prints a
// paper-style table built from the same metrics the paper reports.
//
// Usage:
//
//	antibench -exp fig9 -scale 1.0
//	antibench -exp all -scale 0.2
//
// Experiments: overhead (§7.1), fig9 (§7.2), combiner (§7.3),
// fig10 (§7.4), table1 (§7.4), table2 (§7.5), fig11 (§7.6),
// wordcount (§7.7.1), pagerank (§7.7.2), fig12 (§7.7.3), all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
)

type renderer interface{ Render(w io.Writer) }

type experiment struct {
	name string
	desc string
	run  func(experiments.Config) (renderer, error)
}

func adapt[T renderer](f func(experiments.Config) (T, error)) func(experiments.Config) (renderer, error) {
	return func(cfg experiments.Config) (renderer, error) { return f(cfg) }
}

var registry = []experiment{
	{"overhead", "E1 §7.1 Anti-Combining overhead on Sort", adapt(experiments.Overhead)},
	{"fig9", "E2 Fig.9 Query-Suggestion map output size", adapt(experiments.QSMapOutput)},
	{"combiner", "E3 §7.3 Query-Suggestion with Combiner", adapt(experiments.QSCombiner)},
	{"fig10", "E4 Fig.10 Query-Suggestion with Combiner+compression", adapt(experiments.QSCompression)},
	{"table1", "E5 Table 1 codec cost breakdown", adapt(experiments.QSCodecTable)},
	{"table2", "E6 Table 2 total cost breakdown", adapt(experiments.QSCostBreakdown)},
	{"fig11", "E7 Fig.11 CPU threshold sweep", adapt(experiments.CPUThreshold)},
	{"wordcount", "E8 §7.7.1 WordCount", adapt(experiments.WordCount)},
	{"pagerank", "E9 §7.7.2 PageRank (5 iterations)", adapt(experiments.PageRank)},
	{"fig12", "E10 Fig.12 1-Bucket-Theta join", adapt(experiments.ThetaJoin)},
	{"scanshare", "X1 extension: multi-query scan sharing (§1 motivation)", adapt(experiments.ScanShare)},
	{"window", "X2 extension: cross-call EagerSH window (§9 future work)", adapt(experiments.CrossCall)},
	{"netsweep", "X3 extension: runtime benefit vs network speed", adapt(experiments.NetworkSweep)},
	{"skew", "X4 extension: reducer load skew under LazySH (§6.2)", adapt(experiments.Skew)},
	{"skewpart", "X5 extension: skew-aware adaptive partitioning (hash/range/split)", adapt(experiments.SkewPartition)},
	{"thetashares", "X6 extension: SharesSkew allocation for 1-Bucket-Theta", adapt(experiments.ThetaShares)},
	{"pagerank-iter", "X7 extension: iterative PageRank via dag pipeline (handoff vs chaining)", adapt(experiments.PipelineHandoff)},
	{"sort", "OBS traced prefix-sort with forced Shared spilling (use with -trace)", adapt(experiments.Sort)},
}

func main() {
	// When spawned as a cluster worker (-cluster mode re-executes this
	// binary), become one and never return.
	cluster.WorkerMainIfSpawned()

	var (
		exp      = flag.String("exp", "all", "experiment id (see -list; 'all' runs everything)")
		scale    = flag.Float64("scale", 0.5, "dataset scale factor (1.0 = full default sizes)")
		seed     = flag.Uint64("seed", 2014, "dataset seed")
		reducers = flag.Int("reducers", 8, "reduce tasks per job")
		splits   = flag.Int("splits", 8, "map tasks per job")
		par      = flag.Int("parallelism", 0, "concurrent tasks (0 = GOMAXPROCS); 1 gives the most stable CPU numbers")
		asJSON   = flag.Bool("json", false, "emit results as JSON instead of tables")
		list     = flag.Bool("list", false, "list experiments and exit")

		clusterN    = flag.Int("cluster", 0, "run cluster mode with N worker subprocesses instead of -exp (compares against the in-process engine)")
		clusterKill = flag.Bool("cluster-kill", false, "with -cluster: SIGKILL one worker mid-job to demonstrate failure recovery")
		slots       = flag.Int("cluster-slots", 2, "with -cluster: task slots per worker process")

		chaosSeed    = flag.Uint64("chaos-seed", 0, "replay one seeded chaos soak instead of -exp (prints the fault schedule)")
		chaosSeeds   = flag.Int("chaos-seeds", 0, "run N consecutive seeded chaos soaks instead of -exp (seeds 1..N in-process, 101..100+N cluster)")
		chaosProfile = flag.String("chaos-profile", "mixed", "chaos fault profile: mixed, disk, net, crash")
		chaosEngine  = flag.String("chaos-engine", "both", "chaos soak engine: inprocess, cluster, both")

		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON file covering every job run")
		metrics  = flag.String("metrics", "", "write live metrics snapshots (JSONL) to this file ('-' for stderr)")
		interval = flag.Duration("metrics-interval", 500*time.Millisecond, "live metrics snapshot interval")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}

	if *pprof != "" {
		go func() {
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "antibench: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "antibench: pprof on http://%s/debug/pprof/\n", *pprof)
	}

	cfg := experiments.Config{
		Scale:       *scale,
		Seed:        *seed,
		Reducers:    *reducers,
		Splits:      *splits,
		Parallelism: *par,
	}

	if *traceOut != "" {
		cfg.Tracer = obs.NewTracer()
		defer writeTrace(cfg.Tracer, *traceOut)
	}
	if *metrics != "" {
		w, closeFn, err := metricsWriter(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "antibench: %v\n", err)
			os.Exit(1)
		}
		cfg.Metrics = obs.NewRegistry()
		rep := obs.NewReporter(w, cfg.Metrics, *interval)
		defer closeFn()
		defer rep.Stop()
	}

	if *chaosSeed != 0 || *chaosSeeds > 0 {
		if err := runChaos(*chaosSeed, *chaosSeeds, *chaosProfile, *chaosEngine, cfg.Tracer); err != nil {
			fmt.Fprintf(os.Stderr, "antibench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *clusterN > 0 {
		start := time.Now()
		res, err := experiments.ClusterCompare(cfg, experiments.ClusterOptions{
			Workers:        *clusterN,
			SlotsPerWorker: *slots,
			Kill:           *clusterKill,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "antibench: cluster mode: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(res); err != nil {
				fmt.Fprintf(os.Stderr, "antibench: encoding JSON: %v\n", err)
				os.Exit(1)
			}
			return
		}
		res.Render(os.Stdout)
		fmt.Printf("  [completed in %v]\n", time.Since(start).Round(time.Millisecond))
		return
	}

	selected := registry[:0:0]
	for _, e := range registry {
		if *exp == "all" || *exp == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "antibench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	jsonOut := map[string]any{}
	for _, e := range selected {
		if !*asJSON {
			fmt.Printf("=== %s: %s (scale %.2f) ===\n", e.name, e.desc, *scale)
		}
		start := time.Now()
		r, err := e.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "antibench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		if *asJSON {
			jsonOut[e.name] = r
			continue
		}
		r.Render(os.Stdout)
		fmt.Printf("  [completed in %v]\n\n", time.Since(start).Round(time.Millisecond))
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "antibench: encoding JSON: %v\n", err)
			os.Exit(1)
		}
	}
}

// runChaos drives the seeded chaos soaks from the command line: one
// seed (replay mode) or a consecutive matrix, against the in-process
// engine, the cluster runtime, or both. Every run prints its injected
// fault schedule; a failing run exits nonzero with the exact replay
// command, so any failure seen in the wild is reproducible by seed.
func runChaos(seed uint64, n int, profile, engine string, tracer *obs.Tracer) error {
	prof, err := chaos.ProfileByName(profile)
	if err != nil {
		return err
	}
	type soakEngine struct {
		name string
		base uint64 // matrix start seed, mirroring the go test soak
		run  func(uint64, chaos.Profile, *obs.Tracer) (*chaos.SoakReport, error)
	}
	var engines []soakEngine
	if engine == "inprocess" || engine == "both" {
		engines = append(engines, soakEngine{"inprocess", 1, chaos.SoakInProcess})
	}
	if engine == "cluster" || engine == "both" {
		engines = append(engines, soakEngine{"cluster", 101, chaos.SoakCluster})
	}
	if len(engines) == 0 {
		return fmt.Errorf("unknown engine %q (have inprocess, cluster, both)", engine)
	}
	for _, e := range engines {
		seeds := []uint64{seed}
		if seed == 0 {
			seeds = seeds[:0]
			for i := 0; i < n; i++ {
				seeds = append(seeds, e.base+uint64(i))
			}
		}
		for _, sd := range seeds {
			start := time.Now()
			rep, err := e.run(sd, prof, tracer)
			if err != nil {
				return fmt.Errorf("%v\nreplay: antibench -chaos-seed %d -chaos-profile %s -chaos-engine %s",
					err, sd, profile, e.name)
			}
			fmt.Printf("chaos %-9s seed=%-4d profile=%s faults=%d attempts=%d [%v]\n",
				e.name, rep.Seed, rep.Profile, rep.Faults, rep.Attempts,
				time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// writeTrace exports the collected spans as Chrome trace-event JSON
// (open with chrome://tracing or https://ui.perfetto.dev).
func writeTrace(t *obs.Tracer, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "antibench: creating trace file: %v\n", err)
		return
	}
	err = t.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "antibench: writing trace: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "antibench: wrote %d spans to %s\n", len(t.Spans()), path)
}

// metricsWriter opens the live-metrics sink: a file path, or '-' for
// stderr (stdout carries the result tables).
func metricsWriter(path string) (io.Writer, func(), error) {
	if path == "-" {
		return os.Stderr, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("creating metrics file: %w", err)
	}
	return f, func() { f.Close() }, nil
}
