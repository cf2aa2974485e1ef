package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// A `go test -bench -benchmem` run as it reaches stdin: header, a row
// with a custom ReportMetric unit, a plain row, and the trailer.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/mr
cpu: AMD EPYC 7B13
BenchmarkShuffleDataPlane/compressed-memfs-8         	     147	   8591346 ns/op	 976.40 MB/s	  400640 wireB/op	 8492549 B/op	     277 allocs/op
BenchmarkSpillSort-8   	     100	     12345 ns/op	     678 B/op	       9 allocs/op
PASS
ok  	repro/internal/mr	3.217s
`

func TestParseResult(t *testing.T) {
	line := "BenchmarkShuffleDataPlane/compressed-memfs-8   147   8591346 ns/op   976.40 MB/s   400640 wireB/op   8492549 B/op   277 allocs/op"
	got, ok := parseResult(line)
	if !ok {
		t.Fatal("result line not recognised")
	}
	want := Benchmark{
		Name:        "BenchmarkShuffleDataPlane/compressed-memfs",
		Iterations:  147,
		NsPerOp:     8591346,
		BytesPerOp:  8492549,
		AllocsPerOp: 277,
		Extra:       map[string]float64{"MB/s": 976.40, "wireB/op": 400640},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseResult:\n got %+v\nwant %+v", got, want)
	}
	for _, line := range []string{
		"BenchmarkFoo-8   --- FAIL: something",
		"BenchmarkFoo",
		"BenchmarkFoo-8   many   12 ns/op",
	} {
		if _, ok := parseResult(line); ok {
			t.Errorf("%q parsed as a result line", line)
		}
	}
}

func TestParseHeader(t *testing.T) {
	r, err := parse(bufio.NewScanner(strings.NewReader(benchOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Goos != "linux" || r.Goarch != "amd64" || r.CPU != "AMD EPYC 7B13" {
		t.Errorf("header = %q %q %q", r.Goos, r.Goarch, r.CPU)
	}
	if len(r.Benchmarks) != 2 || r.Benchmarks[1].Name != "BenchmarkSpillSort" {
		t.Errorf("benchmarks = %+v, want the two result lines", r.Benchmarks)
	}
	for _, b := range r.Benchmarks {
		if b.Pkg != "repro/internal/mr" {
			t.Errorf("%s: pkg %q, want repro/internal/mr", b.Name, b.Pkg)
		}
	}
	if _, err := parse(bufio.NewScanner(strings.NewReader("goos: linux\nPASS\n"))); err == nil {
		t.Error("output without result lines parsed without error")
	}
}

// TestParseRepeats: three result lines of one benchmark (go test -count
// 3) become one row holding the median of each figure, n = 3 and the
// ns/op quartiles, while a benchmark run once keeps its figures with
// n = 1.
func TestParseRepeats(t *testing.T) {
	const repeats = `pkg: repro/internal/workloads/querysuggest
BenchmarkCountsFold-8   72   14000000 ns/op   1700000 B/op   24000 allocs/op   3.0 spills/op
BenchmarkCountsFold-8   80   12000000 ns/op   1800000 B/op   24200 allocs/op   1.0 spills/op
BenchmarkThetaMap-8     10     500000 ns/op
BenchmarkCountsFold-8   61   15000000 ns/op   1600000 B/op   24100 allocs/op   2.0 spills/op
PASS
`
	r, err := parse(bufio.NewScanner(strings.NewReader(repeats)))
	if err != nil {
		t.Fatal(err)
	}
	pkg := "repro/internal/workloads/querysuggest"
	want := []Benchmark{
		{Name: "BenchmarkCountsFold", Pkg: pkg, Iterations: 72, NsPerOp: 14000000, BytesPerOp: 1700000,
			AllocsPerOp: 24100, Extra: map[string]float64{"spills/op": 2}, N: 3, NsQ1: 13000000, NsQ3: 14500000},
		{Name: "BenchmarkThetaMap", Pkg: pkg, Iterations: 10, NsPerOp: 500000, N: 1, NsQ1: 500000, NsQ3: 500000},
	}
	if !reflect.DeepEqual(r.Benchmarks, want) {
		t.Errorf("rows\n got %+v\nwant %+v", r.Benchmarks, want)
	}
}

// TestParseTwoPackages: a run over two packages labels every row with
// its own package, not the last one read.
func TestParseTwoPackages(t *testing.T) {
	second := `goos: linux
goarch: amd64
pkg: repro/internal/workloads/thetajoin
cpu: AMD EPYC 7B13
BenchmarkThetaReduce-8   	      50	  2345678 ns/op	    1024 B/op	       3 allocs/op
PASS
ok  	repro/internal/workloads/thetajoin	1.100s
`
	r, err := parse(bufio.NewScanner(strings.NewReader(benchOutput + second)))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, b := range r.Benchmarks {
		got = append(got, b.Name+"@"+b.Pkg)
	}
	want := []string{
		"BenchmarkShuffleDataPlane/compressed-memfs@repro/internal/mr",
		"BenchmarkSpillSort@repro/internal/mr",
		"BenchmarkThetaReduce@repro/internal/workloads/thetajoin",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows %q, want %q", got, want)
	}
}

// writeReport stores r as a report file and returns its path.
func writeReport(t *testing.T, r Report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAddBaseline: a report's baseline section is carried as is, so a
// refresh keeps comparing against the recorded before; a report without
// one lends its benchmark rows instead.
func TestAddBaseline(t *testing.T) {
	before := Benchmark{Name: "BenchmarkSpillSort", NsPerOp: 24690, BytesPerOp: 1356, AllocsPerOp: 18}
	previous := Benchmark{Name: "BenchmarkSpillSort", NsPerOp: 13000}
	for _, tc := range []struct {
		name    string
		old     Report
		wantRow Benchmark
		wantCPU string
	}{
		{"baseline section", Report{CPU: "new", Benchmarks: []Benchmark{previous}, Baseline: []Benchmark{before}, BaselineCPU: "old"}, before, "old"},
		{"rows only", Report{CPU: "old", Benchmarks: []Benchmark{before}}, before, "old"},
	} {
		r, err := parse(bufio.NewScanner(strings.NewReader(benchOutput)))
		if err != nil {
			t.Fatal(err)
		}
		if err := addBaseline(r, writeReport(t, tc.old)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Baseline, []Benchmark{tc.wantRow}) || r.BaselineCPU != tc.wantCPU {
			t.Errorf("%s: baseline %+v on %q, want %+v on %q", tc.name, r.Baseline, r.BaselineCPU, tc.wantRow, tc.wantCPU)
		}
		want := []Comparison{{Name: "BenchmarkSpillSort", SpeedupX: 2, BytesReductionPct: 50, AllocReductionPct: 50, Changed: true}}
		if !reflect.DeepEqual(r.Comparisons, want) {
			t.Errorf("%s: comparisons %+v, want %+v", tc.name, r.Comparisons, want)
		}
	}
}

// TestChangedByQuartiles: a row counts as changed only when its ns/op
// q1–q3 range misses the baseline row's; a baseline row without
// quartiles compares its median.
func TestChangedByQuartiles(t *testing.T) {
	row := func(q1, med, q3 float64) Benchmark { return Benchmark{NsQ1: q1, NsPerOp: med, NsQ3: q3} }
	for _, tc := range []struct {
		name          string
		before, after Benchmark
		changed       bool
	}{
		{"overlapping", row(90, 100, 110), row(105, 115, 125), false},
		{"touching", row(90, 100, 110), row(110, 120, 130), false},
		{"faster", row(90, 100, 110), row(70, 80, 89), true},
		{"slower", row(90, 100, 110), row(111, 120, 130), true},
		{"no baseline quartiles, same median", Benchmark{NsPerOp: 100}, row(90, 100, 110), false},
		{"no baseline quartiles, other median", Benchmark{NsPerOp: 100}, row(99, 101, 102), true},
	} {
		if got := comparison("B", tc.before, tc.after).Changed; got != tc.changed {
			t.Errorf("%s: changed = %v, want %v", tc.name, got, tc.changed)
		}
	}
}
