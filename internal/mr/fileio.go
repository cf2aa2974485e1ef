package mr

import (
	"bufio"
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
	st, _ := readSegment(nil, io.NopCloser(src)) // with no codec it cannot fail
	defer st.closeStream()
	for {
		k, v, err := st.next()
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
// a pipeline handoff — is verified in flight like any shuffle fetch. On
// error the partial file is removed.
func WriteRecordFile(fs iokit.FS, name string, recs []Record) error {
	w, err := CreateRecordFile(fs, name)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err = w.Write(r.Key, r.Value); err != nil {
			break
		}
	}
	_, _, err = w.Close(err)
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
