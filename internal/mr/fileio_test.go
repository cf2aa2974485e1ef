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
	if err := writeLines(fs, "input.txt", lines); err != nil {
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
		err := writeLines(fs, fmt.Sprintf("in/%d.txt", i),
			[]string{strings.Repeat("file words count ", 50)})
		if err != nil {
			t.Fatal(err)
		}
	}
	names, _ := fs.List()
	splits := make([]Split, len(names))
	for i, n := range names {
		splits[i] = &LineSplit{FS: fs, Name: n}
	}
	res, err := Run(wordCountJob(true), splits)
	if err != nil {
		t.Fatal(err)
	}
	if got := outputMap(t, res)["words"]; got != "150" {
		t.Errorf("words = %s", got)
	}
}

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

// writeLines writes lines, each ending in a newline, to a new file name
// on fs: input for LineSplit.
func writeLines(fs iokit.FS, name string, lines []string) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := f.Write([]byte(l + "\n")); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
