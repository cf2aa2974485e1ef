package mr

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/iokit"
)

func TestLineSplitRoundTrip(t *testing.T) {
	fs := iokit.NewMemFS()
	lines := []string{"first line", "second line", "", "fourth"}
	if err := WriteLines(fs, "input.txt", lines); err != nil {
		t.Fatal(err)
	}
	var got []string
	s := &LineSplit{FS: fs, Name: "input.txt"}
	err := s.Records(func(k, v []byte) error {
		if k != nil {
			t.Error("line split keys should be nil")
		}
		got = append(got, string(v))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lines) {
		t.Fatalf("got %d lines, want %d", len(got), len(lines))
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Errorf("line %d: %q != %q", i, got[i], lines[i])
		}
	}
}

func TestLineSplitMissingFile(t *testing.T) {
	s := &LineSplit{FS: iokit.NewMemFS(), Name: "missing"}
	if err := s.Records(func(k, v []byte) error { return nil }); err == nil {
		t.Error("missing file should error")
	}
}

func TestRecordFileRoundTrip(t *testing.T) {
	fs := iokit.NewMemFS()
	recs := []Record{
		{Key: []byte("k1"), Value: []byte("v1")},
		{Key: nil, Value: []byte("v2")},
		{Key: []byte("k3"), Value: nil},
	}
	if err := WriteRecordFile(fs, "recs", recs); err != nil {
		t.Fatal(err)
	}
	var got []Record
	s := &RecordFileSplit{FS: fs, Name: "recs"}
	err := s.Records(func(k, v []byte) error {
		got = append(got, Record{Key: append([]byte(nil), k...), Value: append([]byte(nil), v...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d records", len(got))
	}
	if string(got[0].Key) != "k1" || string(got[2].Key) != "k3" {
		t.Error("key mismatch")
	}
}

func TestJobFromFilesAndWriteOutput(t *testing.T) {
	fs := iokit.NewMemFS()
	for i := 0; i < 3; i++ {
		err := WriteLines(fs, fmt.Sprintf("in/%d.txt", i),
			[]string{strings.Repeat("file words count ", 50)})
		if err != nil {
			t.Fatal(err)
		}
	}
	names, _ := fs.List()
	res, err := Run(wordCountJob(true), FileSplits(fs, names, false))
	if err != nil {
		t.Fatal(err)
	}
	if got := outputMap(t, res)["words"]; got != "150" {
		t.Errorf("words = %s", got)
	}

	outFS := iokit.NewMemFS()
	parts, err := WriteOutput(outFS, "out", res)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %v", parts)
	}
	// Read the output back through RecordFileSplit.
	total := 0
	for _, p := range parts {
		s := &RecordFileSplit{FS: outFS, Name: p}
		if err := s.Records(func(k, v []byte) error { total++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if total != 3 {
		t.Errorf("output records = %d, want 3 distinct words", total)
	}
}

func TestIterate(t *testing.T) {
	// Each round doubles a counter per key.
	initial := []Record{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("1")},
	}
	build := func(round int) *Job {
		return &Job{
			NewMapper: NewMapFunc(func(k, v []byte, out Emitter) error {
				if err := out.Emit(k, v); err != nil {
					return err
				}
				return out.Emit(k, v)
			}),
			NewReducer: NewReduceFunc(func(k []byte, vals ValueIter, out Emitter) error {
				n := 0
				for {
					v, ok := vals.Next()
					if !ok {
						break
					}
					var x int
					fmt.Sscanf(string(v), "%d", &x)
					n += x
				}
				return out.Emit(k, []byte(fmt.Sprintf("%d", n)))
			}),
			NumReduceTasks: 2,
		}
	}
	res, stats, err := Iterate(4, initial, 2, build)
	if err != nil {
		t.Fatal(err)
	}
	got := outputMap(t, res)
	if got["a"] != "16" || got["b"] != "16" { // ×2 per round, 4 rounds
		t.Errorf("final = %v, want 16s", got)
	}
	if stats.MapInputRecords != 8 { // 2 records × 4 rounds
		t.Errorf("summed MapInputRecords = %d", stats.MapInputRecords)
	}
	if stats.WallTime <= 0 {
		t.Error("summed WallTime should be positive")
	}
	// Every round's map output is metered per partition; the rounds'
	// meters sum into the total just as the byte counts do.
	if len(stats.MapOutputPerPartition) != 2 {
		t.Fatalf("summed MapOutputPerPartition = %v, want 2 partitions", stats.MapOutputPerPartition)
	}
	var perPart int64
	for _, b := range stats.MapOutputPerPartition {
		perPart += b
	}
	if perPart != stats.MapOutputBytes {
		t.Errorf("per-partition map output sums to %d, MapOutputBytes = %d", perPart, stats.MapOutputBytes)
	}
}

// TestCollectRecords: a record file read back through CollectRecords
// holds the written records, each clipped to its own bytes, and a
// corrupted file yields ErrIntegrity and no records.
func TestCollectRecords(t *testing.T) {
	fs := iokit.NewMemFS()
	var recs []Record
	for i := 0; i < 500; i++ {
		recs = append(recs, Record{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte(strings.Repeat("v", i%50))})
	}
	if err := WriteRecordFile(fs, "recs", recs); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("recs")
	got, err := CollectRecords(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("collected %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, recs[i].Key) || !bytes.Equal(got[i].Value, recs[i].Value) {
			t.Fatalf("record %d = %s, want %s", i, FormatRecord(got[i]), FormatRecord(recs[i]))
		}
		if cap(got[i].Key) != len(got[i].Key) || cap(got[i].Value) != len(got[i].Value) {
			t.Fatalf("record %d is not clipped to its own bytes", i)
		}
	}

	raw, err := readAllFile(fs, "recs")
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	got, err = CollectRecords(bytes.NewReader(raw))
	if !errors.Is(err, ErrIntegrity) || got != nil {
		t.Errorf("corrupted file: %d records, err %v; want none and ErrIntegrity", len(got), err)
	}
}

// TestRecordFileAllocations: writing a small record file and reading it
// back through CollectRecords reuses the pooled record writer and
// reader, so the round trip allocates about what the records it returns
// take (≈ 68 KB here, chunks and headers), not two 64 KiB buffers more.
func TestRecordFileAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	fs := iokit.NewMemFS()
	recs := make([]Record, 300)
	for i := range recs {
		recs[i] = Record{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte("a value of modest size")}
	}
	roundTrip := func() {
		if err := WriteRecordFile(fs, "out", recs); err != nil {
			t.Fatal(err)
		}
		f, _ := fs.Open("out")
		if _, err := CollectRecords(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	roundTrip() // warm the pools
	if n := allocatedBytes(roundTrip); n > 96<<10 {
		t.Errorf("record file round trip of %d records allocated %d bytes, want at most 96 KiB", len(recs), n)
	}
}

func TestIterateError(t *testing.T) {
	bad := func(round int) *Job { return &Job{} } // invalid: no mapper
	if _, _, err := Iterate(1, nil, 1, bad); err == nil {
		t.Error("invalid job should surface an error")
	}
}
