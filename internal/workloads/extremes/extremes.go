// Package extremes implements a secondary-sort workload over Cloud
// reports: per report date, find the minimum and maximum latitude
// without buffering a day's reports in memory. The composite key is
// (date, latitude) in big-endian order, the sort comparator orders the
// full key, and the grouping comparator groups by date only, so each
// Reduce call streams a day's reports in latitude order — Hadoop's
// secondary-sort design pattern, which §6.1 calls out as the reason the
// Shared structure honors the grouping comparator.
package extremes

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bytesx"
	"repro/internal/datagen"
	"repro/internal/mr"
)

// Key packs (date, latitude) big-endian so raw byte comparison sorts by
// date then latitude.
func Key(date, lat int32) []byte {
	var k [8]byte
	binary.BigEndian.PutUint32(k[:4], uint32(date))
	binary.BigEndian.PutUint32(k[4:], uint32(lat+900)) // bias: latitudes sort unsigned
	return k[:]
}

// KeyDate extracts the date from a composite key.
func KeyDate(key []byte) int32 { return int32(binary.BigEndian.Uint32(key[:4])) }

// KeyLat extracts the latitude from a composite key.
func KeyLat(key []byte) int32 { return int32(binary.BigEndian.Uint32(key[4:])) - 900 }

// GroupByDate compares composite keys by their date component only.
func GroupByDate(a, b []byte) int { return bytesx.Bytes(a[:4], b[:4]) }

// datePartitioner routes by date so one reducer sees a whole day.
type datePartitioner struct{}

// Partition implements mr.Partitioner.
func (datePartitioner) Partition(key []byte, n int) int {
	return mr.HashPartitioner{}.Partition(key[:4], n)
}

type mapper struct{ mr.MapperBase }

// Map implements mr.Mapper over one Cloud record line. The whole line
// rides as the value (several queries of this shape would share it, but
// one suffices to exercise the secondary sort).
func (mapper) Map(key, value []byte, out mr.Emitter) error {
	date, _, lat, ok := datagen.ParseCloudLine(value)
	if !ok {
		return fmt.Errorf("extremes: bad record %q", value)
	}
	return out.Emit(Key(date, lat), value)
}

type reducer struct{ mr.ReducerBase }

// Reduce implements mr.Reducer: values arrive latitude-sorted, so the
// first and last records carry the extremes — no buffering needed.
func (reducer) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	var first, last int32
	n := 0
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		_, _, lat, ok2 := datagen.ParseCloudLine(v)
		if !ok2 {
			return fmt.Errorf("extremes: bad record %q", v)
		}
		if n == 0 {
			first = lat
		} else if lat < last {
			return fmt.Errorf("extremes: secondary sort violated: %d after %d", lat, last)
		}
		last = lat
		n++
	}
	date := KeyDate(key)
	return out.Emit([]byte(fmt.Sprintf("%d", date)), []byte(Format(first, last, n)))
}

// Format renders a day's result (shared with Reference).
func Format(minLat, maxLat int32, count int) string {
	return fmt.Sprintf("min=%d,max=%d,n=%d", minLat, maxLat, count)
}

// NewJob builds the secondary-sort job.
func NewJob(reducers int) *mr.Job {
	if reducers <= 0 {
		reducers = 8
	}
	return &mr.Job{
		Name:           "extremes",
		NewMapper:      func() mr.Mapper { return mapper{} },
		NewReducer:     func() mr.Reducer { return reducer{} },
		Partitioner:    datePartitioner{},
		GroupCompare:   GroupByDate,
		NumReduceTasks: reducers,
		Deterministic:  true,
	}
}

// Splits renders Cloud record lines as in-memory splits.
func Splits(cloud *datagen.Cloud, numSplits int) []mr.Split {
	return mr.LineSplits(cloud.Len(), numSplits, func(i int) string { return cloud.Record(i).Line() })
}

// Reference computes per-date extremes sequentially.
func Reference(cloud *datagen.Cloud) map[string]string {
	type agg struct {
		minLat, maxLat int32
		n              int
	}
	aggs := map[int32]*agg{}
	for i := 0; i < cloud.Len(); i++ {
		r := cloud.Record(i)
		a, ok := aggs[r.Date]
		if !ok {
			aggs[r.Date] = &agg{minLat: r.Latitude, maxLat: r.Latitude, n: 1}
			continue
		}
		if r.Latitude < a.minLat {
			a.minLat = r.Latitude
		}
		if r.Latitude > a.maxLat {
			a.maxLat = r.Latitude
		}
		a.n++
	}
	out := make(map[string]string, len(aggs))
	for date, a := range aggs {
		out[fmt.Sprintf("%d", date)] = Format(a.minLat, a.maxLat, a.n)
	}
	return out
}
