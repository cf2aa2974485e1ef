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
	if r.Goos != "linux" || r.Goarch != "amd64" || r.Pkg != "repro/internal/mr" || r.CPU != "AMD EPYC 7B13" {
		t.Errorf("header = %q %q %q %q", r.Goos, r.Goarch, r.Pkg, r.CPU)
	}
	if len(r.Benchmarks) != 2 || r.Benchmarks[1].Name != "BenchmarkSpillSort" {
		t.Errorf("benchmarks = %+v, want the two result lines", r.Benchmarks)
	}
	if _, err := parse(bufio.NewScanner(strings.NewReader("goos: linux\nPASS\n"))); err == nil {
		t.Error("output without result lines parsed without error")
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
		want := []Comparison{{Name: "BenchmarkSpillSort", SpeedupX: 2, BytesReductionPct: 50, AllocReductionPct: 50}}
		if !reflect.DeepEqual(r.Comparisons, want) {
			t.Errorf("%s: comparisons %+v, want %+v", tc.name, r.Comparisons, want)
		}
	}
}
