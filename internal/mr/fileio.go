package mr

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/iokit"
)

// LineSplit streams newline-separated records from a file: each line
// becomes a (nil, line) record, like Hadoop's TextInputFormat (minus
// byte offsets as keys, which no workload here uses).
type LineSplit struct {
	FS   iokit.FS
	Name string
}

// Records implements Split.
func (s *LineSplit) Records(fn func(key, value []byte) error) error {
	f, err := s.FS.Open(s.Name)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if err := fn(nil, sc.Bytes()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// RecordFileSplit streams the (key, value) records of a file written by
// WriteRecordFile, the engine's SequenceFile analogue.
type RecordFileSplit struct {
	FS   iokit.FS
	Name string
}

// Records implements Split.
func (s *RecordFileSplit) Records(fn func(key, value []byte) error) error {
	f, err := s.FS.Open(s.Name)
	if err != nil {
		return err
	}
	defer f.Close()
	return ReadRecords(f, fn)
}

// ReadRecords streams the records of a record file's bytes — read from
// a local file or straight off a fetch — verifying the CRC32C framing
// as it goes: corruption or truncation fails with ErrIntegrity before
// any record of the bad frame reaches fn. The key and value fn gets are
// valid only until it returns.
func ReadRecords(src io.Reader, fn func(key, value []byte) error) error {
	ck := newCRCReader(src, false)
	defer ck.release()
	r := getRecordReader(ck)
	defer putRecordReader(r)
	for {
		k, v, err := r.ReadRecord()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
}

// CollectRecords reads a whole record file's bytes into records the
// way a reduce task collects its output: one copy per byte, into the
// shared chunks of an output arena, with each Key and Value clipped to
// its own bytes. On any error it returns nothing.
func CollectRecords(src io.Reader) ([]Record, error) {
	var a outputArena
	if err := ReadRecords(src, func(k, v []byte) error { a.add(k, v); return nil }); err != nil {
		return nil, err
	}
	return a.records(), nil
}

// WriteRecordFile writes records as a record file readable by
// RecordFileSplit: length-framed records under the same CRC32C framing
// as segments (no codec), so a record file served to another process —
// a pipeline handoff — is verified in flight like any shuffle fetch.
func WriteRecordFile(fs iokit.FS, name string, recs []Record) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	ck := newChecksumWriter(f)
	w := getRecordWriter(ck)
	for _, r := range recs {
		if err = w.WriteRecord(r.Key, r.Value); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	putRecordWriter(w)
	if err == nil {
		err = ck.Close()
	} else {
		ck.release()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteLines writes newline-separated text readable by LineSplit.
func WriteLines(fs iokit.FS, name string, lines []string) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, l := range lines {
		if _, err := w.WriteString(l); err != nil {
			f.Close()
			return err
		}
		if err := w.WriteByte('\n'); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteOutput persists a job result as one framed record file per reduce
// partition ("<prefix>/part-0000N"), returning the file names.
func WriteOutput(fs iokit.FS, prefix string, res *Result) ([]string, error) {
	names := make([]string, len(res.Output))
	for p, recs := range res.Output {
		name := fmt.Sprintf("%s/part-%05d", prefix, p)
		if err := WriteRecordFile(fs, name, recs); err != nil {
			return nil, err
		}
		names[p] = name
	}
	return names, nil
}

// FileSplits builds one split per file name, auto-detecting nothing:
// framed=true uses RecordFileSplit, otherwise LineSplit.
func FileSplits(fs iokit.FS, names []string, framed bool) []Split {
	splits := make([]Split, len(names))
	for i, n := range names {
		if framed {
			splits[i] = &RecordFileSplit{FS: fs, Name: n}
		} else {
			splits[i] = &LineSplit{FS: fs, Name: n}
		}
	}
	return splits
}

// Iterate runs an iterative dataflow: build constructs the (possibly
// wrapped) job for each round, and each round consumes the previous
// round's output records. It returns the final result and the summed
// stats of all rounds — the driver pattern PageRank-style jobs need.
// Rounds run one after another, so their wall times add up.
func Iterate(rounds int, initial []Record, splitsPer int, build func(round int) *Job) (*Result, Stats, error) {
	var total Stats
	recs := initial
	var res *Result
	for round := 0; round < rounds; round++ {
		var err error
		res, err = Run(build(round), SplitRecords(recs, splitsPer))
		if err != nil {
			return nil, total, fmt.Errorf("mr: iteration %d: %w", round, err)
		}
		wall := total.WallTime + res.Stats.WallTime
		total.Accumulate(res.Stats)
		total.WallTime = wall
		recs = res.SortedOutput()
	}
	return res, total, nil
}
