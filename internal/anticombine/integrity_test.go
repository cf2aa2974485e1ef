package anticombine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/sched"
)

// flipFS flips one byte, at offset at, of the first file it creates whose
// name contains match — if that file grows that long.
type flipFS struct {
	iokit.FS
	match   string
	at      int64
	claimed atomic.Bool // the first matching file has been created
	flipped atomic.Bool // its byte at has been written, flipped
}

// Create implements iokit.FS.
func (f *flipFS) Create(name string) (io.WriteCloser, error) {
	w, err := f.FS.Create(name)
	if err != nil || !strings.Contains(name, f.match) || !f.claimed.CompareAndSwap(false, true) {
		return w, err
	}
	return &flipWriter{WriteCloser: w, fs: f}, nil
}

type flipWriter struct {
	io.WriteCloser
	fs  *flipFS
	off int64 // bytes written so far
}

func (w *flipWriter) Write(p []byte) (int, error) {
	if i := w.fs.at - w.off; i >= 0 && i < int64(len(p)) {
		p = bytes.Clone(p) // the caller's buffer stays intact
		p[i] ^= 0x10
		w.fs.flipped.Store(true)
	}
	w.off += int64(len(p))
	return w.WriteCloser.Write(p)
}

// TestSharedSpillBitFlipIsIntegrityError flips one byte in the second
// CRC frame of Shared's first spill run. Draining reads it back and must
// fail with ErrIntegrity instead of handing out a wrong value, and Close
// must leave no handle open and no file behind.
func TestSharedSpillBitFlipIsIntegrityError(t *testing.T) {
	mem := iokit.NewMemFS()
	flip := &flipFS{FS: mem, match: "shared-spill", at: 70 << 10}
	track := &iokit.TrackFS{Inner: flip}
	s := NewShared(SharedConfig{
		KeyCompare:    bytesx.Bytes,
		MemLimitBytes: 100 << 10,
		FS:            track,
	})
	value := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 3000; i++ {
		if err := s.Add([]byte(fmt.Sprintf("key%04d", i%1000)), value); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	if !flip.flipped.Load() || s.Spills() < 2 {
		t.Fatalf("setup: flipped %v after %d spills", flip.flipped.Load(), s.Spills())
	}
	var err error
	for err == nil && !s.Empty() {
		var vals [][]byte
		if _, vals, err = s.PopMinKeyValues(); err != nil {
			break
		}
		for _, v := range vals {
			if !bytes.Equal(v, value) {
				t.Fatalf("drained a wrong value %q", v)
			}
		}
	}
	if !errors.Is(err, mr.ErrIntegrity) {
		t.Fatalf("draining a flipped run: err = %v, want ErrIntegrity", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := track.OpenHandles(); n != 0 {
		t.Errorf("%d handles left open after Close", n)
	}
	if names := listFiles(t, mem); len(names) != 0 {
		t.Errorf("Close left files: %v", names)
	}
}

// TestJobRetriesSharedSpillBitFlip flips one byte of the first Shared
// spill run a job writes. The reduce attempt that reads it fails with
// ErrIntegrity, which is transient: with a second attempt allowed, the
// job retries it and its output equals a clean run's.
func TestJobRetriesSharedSpillBitFlip(t *testing.T) {
	run := func(attempts int, flip *flipFS) (*mr.Result, error) {
		job := Wrap(prefixJob(nil, 3), Options{Strategy: Adaptive, SharedMemLimitBytes: 1 << 10})
		job.MaxTaskAttempts = attempts
		if flip != nil {
			job.FS = flip
		}
		return mr.Run(job, queries(300))
	}
	clean, err := run(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.Extra[CounterSharedSpills] == 0 {
		t.Fatal("setup: the job's Shared never spilled")
	}

	// One attempt: the flip fails the job, as ErrIntegrity.
	flip := &flipFS{FS: iokit.NewMemFS(), match: "shared-spill", at: 100}
	if _, err := run(1, flip); !flip.flipped.Load() || !errors.Is(err, mr.ErrIntegrity) {
		t.Fatalf("flipped %v: job error = %v, want ErrIntegrity", flip.flipped.Load(), err)
	}

	// Two attempts: the reduce attempt is retried and the output is clean.
	flip = &flipFS{FS: iokit.NewMemFS(), match: "shared-spill", at: 100}
	res, err := run(2, flip)
	if err != nil {
		t.Fatalf("job did not survive one flipped spill byte: %v", err)
	}
	var retried []sched.Attempt
	for _, a := range res.Timeline {
		if a.Outcome == sched.OutcomeRetrying {
			retried = append(retried, a)
		}
	}
	if len(retried) != 1 || retried[0].Group != mr.TaskGroupReduce || !strings.Contains(retried[0].Err, mr.ErrIntegrity.Error()) {
		t.Fatalf("retried attempts = %+v, want one reduce attempt failed on integrity", retried)
	}
	co, ro := clean.SortedOutput(), res.SortedOutput()
	if len(co) != len(ro) {
		t.Fatalf("output has %d records, clean run %d", len(ro), len(co))
	}
	for i := range co {
		if !bytes.Equal(co[i].Key, ro[i].Key) || !bytes.Equal(co[i].Value, ro[i].Value) {
			t.Fatalf("record %d = %q:%q, clean run %q:%q", i, ro[i].Key, ro[i].Value, co[i].Key, co[i].Value)
		}
	}
}
