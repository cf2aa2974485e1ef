package thetajoin

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/mr"
)

// sliceIter is an mr.ValueIter over a fixed value list.
type sliceIter struct {
	vals [][]byte
	i    int
}

func (it *sliceIter) Next() ([]byte, bool) {
	if it.i == len(it.vals) {
		return nil, false
	}
	it.i++
	return it.vals[it.i-1], true
}

// discard is an emitter that keeps nothing.
var discard = mr.EmitterFunc(func(key, value []byte) error { return nil })

// benchLines renders the theta_snappy benchmark's Cloud records.
func benchLines(n int) [][]byte {
	cloud := datagen.NewCloud(datagen.CloudConfig{Seed: 1, Records: n})
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = []byte(cloud.Record(i).Line())
	}
	return lines
}

// BenchmarkThetaMap is one 1-Bucket-Theta Map call on the 33×33 grid
// (66 emits), un-tiled and with every region sub-tiled 1×2.
func BenchmarkThetaMap(b *testing.B) {
	lines := benchLines(1024)
	grid := Config{Rows: 33, Cols: 33, Reducers: 8}
	tiled := Config{Rows: 33, Cols: 33, Reducers: 2 * 33 * 33}
	weights := make([]int64, 33*33)
	for i := range weights {
		weights[i] = 100
	}
	tiled.Shares = BuildSharesPlan(tiled, weights, tiled.Reducers, 1)
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"grid", grid}, {"subtiled", tiled}} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewJob(bc.cfg).NewMapper()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.Map(nil, lines[i%len(lines)], discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkThetaReduce is the local band join of the first 8 regions of
// the theta_snappy benchmark's 7 000 records on the 33×33 grid (≈ 210
// S and 210 T tuples a region), per op.
func BenchmarkThetaReduce(b *testing.B) {
	cfg := Config{Rows: 33, Cols: 33, Reducers: 8}
	job := NewJob(cfg)
	m := job.NewMapper()
	regions := make(map[string][][]byte)
	keep := mr.EmitterFunc(func(key, value []byte) error {
		if k := RegionKey(8); bytes.Compare(key, k) < 0 {
			regions[string(key)] = append(regions[string(key)], append([]byte(nil), value...))
		}
		return nil
	})
	for _, line := range benchLines(7000) {
		if err := m.Map(nil, line, keep); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]string, 0, len(regions))
	for k := range regions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r := job.NewReducer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if err := r.Reduce([]byte(k), &sliceIter{vals: regions[k]}, discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}
