package chaos

import (
	"fmt"
	"io"
	"time"

	"repro/internal/iokit"
)

// WrapFS interposes the schedule on a filesystem: reads and writes may
// be delayed, fail outright, return short, or tear (persist a prefix,
// then fail). Injected failures wrap iokit.ErrInjected, so the engine's
// transient-fault classification treats them exactly like the
// deterministic FlakyFS faults the unit tests use.
func (s *Schedule) WrapFS(fs iokit.FS) iokit.FS { return s.WrapFSDelayed(fs, 0) }

// WrapFSDelayed is WrapFS plus a fixed extra sleep on every operation —
// how a straggler worker (WorkerPlan.SlowEvery) is realized.
func (s *Schedule) WrapFSDelayed(fs iokit.FS, perOp time.Duration) iokit.FS {
	return &chaosFS{s: s, inner: fs, perOp: perOp}
}

type chaosFS struct {
	s     *Schedule
	inner iokit.FS
	perOp time.Duration
}

// Create implements iokit.FS.
func (f *chaosFS) Create(name string) (io.WriteCloser, error) {
	w, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &chaosWriter{fs: f, name: name, w: w}, nil
}

// Open implements iokit.FS.
func (f *chaosFS) Open(name string) (io.ReadCloser, error) {
	r, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &chaosReader{fs: f, name: name, r: r}, nil
}

// Remove implements iokit.FS.
func (f *chaosFS) Remove(name string) error { return f.inner.Remove(name) }

// Size implements iokit.FS.
func (f *chaosFS) Size(name string) (int64, error) { return f.inner.Size(name) }

// List implements iokit.FS.
func (f *chaosFS) List() ([]string, error) { return f.inner.List() }

type chaosWriter struct {
	fs   *chaosFS
	name string
	w    io.WriteCloser
}

func (w *chaosWriter) Write(p []byte) (int, error) {
	s := w.fs.s
	if w.fs.perOp > 0 {
		time.Sleep(w.fs.perOp)
	}
	if s.decide("fs", "writeDelay", s.prof.WriteDelay) {
		time.Sleep(fsDelay)
	}
	if len(p) > 1 && s.decide("fs", "tornWrite", s.prof.TornWrite) {
		// Persist a prefix, then fail: the caller sees an error, but the
		// file now holds bytes no reader may trust without a checksum.
		n, _ := w.w.Write(p[:len(p)/2])
		return n, fmt.Errorf("chaos: torn write to %s: %w", w.name, iokit.ErrInjected)
	}
	if s.decide("fs", "writeFail", s.prof.WriteFail) {
		return 0, fmt.Errorf("chaos: write to %s: %w", w.name, iokit.ErrInjected)
	}
	return w.w.Write(p)
}

func (w *chaosWriter) Close() error { return w.w.Close() }

type chaosReader struct {
	fs   *chaosFS
	name string
	r    io.ReadCloser
}

func (r *chaosReader) Read(p []byte) (int, error) {
	s := r.fs.s
	if r.fs.perOp > 0 {
		time.Sleep(r.fs.perOp)
	}
	if s.decide("fs", "readDelay", s.prof.ReadDelay) {
		time.Sleep(fsDelay)
	}
	if s.decide("fs", "readFail", s.prof.ReadFail) {
		return 0, fmt.Errorf("chaos: read of %s: %w", r.name, iokit.ErrInjected)
	}
	if len(p) > 1 && s.decide("fs", "shortRead", s.prof.ShortRead) {
		p = p[:(len(p)+1)/2] // legal for io.Reader; exercises refill paths
	}
	return r.r.Read(p)
}

func (r *chaosReader) Close() error { return r.r.Close() }
