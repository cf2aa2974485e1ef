package repro

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// abExperiments is the suite TestMapPathExperimentDigests replays
// against the golden digests. CPUThreshold is deliberately absent: the
// Adaptive threshold rule (§7.6, Figure 7) measures real Map wall time
// to pick an encoding, so its record flows are time-dependent by design
// and not comparable run to run even within one configuration.
var abExperiments = map[string]func(experiments.Config) error{
	"Overhead":        func(c experiments.Config) error { _, err := experiments.Overhead(c); return err },
	"QSMapOutput":     func(c experiments.Config) error { _, err := experiments.QSMapOutput(c); return err },
	"QSCombiner":      func(c experiments.Config) error { _, err := experiments.QSCombiner(c); return err },
	"QSCompression":   func(c experiments.Config) error { _, err := experiments.QSCompression(c); return err },
	"QSCodecTable":    func(c experiments.Config) error { _, err := experiments.QSCodecTable(c); return err },
	"QSCostBreakdown": func(c experiments.Config) error { _, err := experiments.QSCostBreakdown(c); return err },
	"WordCount":       func(c experiments.Config) error { _, err := experiments.WordCount(c); return err },
	"PageRank":        func(c experiments.Config) error { _, err := experiments.PageRank(c); return err },
	"ThetaJoin":       func(c experiments.Config) error { _, err := experiments.ThetaJoin(c); return err },
	"ScanShare":       func(c experiments.Config) error { _, err := experiments.ScanShare(c); return err },
	"CrossCall":       func(c experiments.Config) error { _, err := experiments.CrossCall(c); return err },
	"Skew":            func(c experiments.Config) error { _, err := experiments.Skew(c); return err },
}

// mapPathGolden holds the digests every job of abExperiments recorded on
// the last commit whose engine still had a sequential, unpooled
// reference configuration to agree with (CHANGES.md, PR 17, has the
// command). It is data, not a snapshot to refresh: a digest changes only
// with an argument for why the job's bytes should.
const mapPathGolden = "testdata/mappath_digests.json"

// TestMapPathExperimentDigests is the byte-identical gate: the full
// experiment suite, under the default engine configuration and under
// GOMAXPROCS 1 (the engine's Parallelism and SpillParallelism both
// default to it, so tasks and spills run one at a time), must record
// exactly the golden per-job digests — output records, logical
// counters, and per-partition shuffle flows all byte-for-byte equal to
// what the parent commit's engine produced. Both runs recycle pooled buffers
// poisoned on put, so a view kept past its put shows up here.
func TestMapPathExperimentDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiment suite twice")
	}
	raw, err := os.ReadFile(mapPathGolden)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string][]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", mapPathGolden, err)
	}
	if len(golden) != len(abExperiments) {
		t.Errorf("%s covers %d experiments, the suite has %d", mapPathGolden, len(golden), len(abExperiments))
	}
	suite := func(procs int) map[string]map[string][]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		got := make(map[string]map[string][]string)
		for name, fn := range abExperiments {
			cfg := experiments.Config{Scale: 0.05, Reducers: 4, Splits: 4}
			cfg.Digests = experiments.NewOutputDigests()
			if err := fn(cfg); err != nil {
				t.Fatalf("%s (GOMAXPROCS=%d): %v", name, procs, err)
			}
			got[name] = cfg.Digests.Snapshot()
		}
		return got
	}
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		got := suite(procs)
		for name, wantJobs := range golden {
			for job, want := range wantJobs {
				if have := got[name][job]; !reflect.DeepEqual(have, want) {
					t.Errorf("GOMAXPROCS=%d: %s job %q digests differ from golden:\ngot  %v\nwant %v",
						procs, name, job, have, want)
				}
			}
			for job := range got[name] {
				if _, ok := wantJobs[job]; !ok {
					t.Errorf("GOMAXPROCS=%d: %s job %q is not in the golden file", procs, name, job)
				}
			}
		}
	}
}
