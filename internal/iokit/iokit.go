// Package iokit abstracts the local filesystem used for map-side spills,
// map output segments, and the Shared structure's spill files, and meters
// every byte read and written so experiments can report Hadoop-style
// "total disk read/write" counters.
//
// Two implementations are provided: MemFS keeps files in memory as
// write-once blocks (the engine's default, and what tests and benchmarks
// use for speed and hermeticity) and OSFS stores files under a root
// directory.
package iokit

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrNotExist is returned when opening or removing a missing file.
var ErrNotExist = errors.New("iokit: file does not exist")

// FS is the minimal filesystem surface the engine needs.
type FS interface {
	// Create opens a new file for writing, truncating any existing file.
	Create(name string) (io.WriteCloser, error)
	// Open opens an existing file for reading.
	Open(name string) (io.ReadCloser, error)
	// Remove deletes a file.
	Remove(name string) error
	// Size reports the byte size of a file.
	Size(name string) (int64, error)
	// List returns the names of all files, sorted.
	List() ([]string, error)
}

// Meter aggregates I/O byte counts. Safe for concurrent use.
type Meter struct {
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	readOps    atomic.Int64
	writeOps   atomic.Int64
}

// AddRead records n bytes read.
func (m *Meter) AddRead(n int64) {
	m.readBytes.Add(n)
	m.readOps.Add(1)
}

// AddWrite records n bytes written.
func (m *Meter) AddWrite(n int64) {
	m.writeBytes.Add(n)
	m.writeOps.Add(1)
}

// ReadBytes reports total bytes read.
func (m *Meter) ReadBytes() int64 { return m.readBytes.Load() }

// WriteBytes reports total bytes written.
func (m *Meter) WriteBytes() int64 { return m.writeBytes.Load() }

// ReadOps reports the number of read calls.
func (m *Meter) ReadOps() int64 { return m.readOps.Load() }

// WriteOps reports the number of write calls.
func (m *Meter) WriteOps() int64 { return m.writeOps.Load() }

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.readBytes.Store(0)
	m.writeBytes.Store(0)
	m.readOps.Store(0)
	m.writeOps.Store(0)
}

// String renders the meter for logs.
func (m *Meter) String() string {
	return fmt.Sprintf("read=%dB(%d ops) write=%dB(%d ops)",
		m.ReadBytes(), m.ReadOps(), m.WriteBytes(), m.WriteOps())
}

// Labeled returns the meter as the snake_case metric map the obs
// metrics registry consumes, for registering a disk meter as its own
// live source.
func (m *Meter) Labeled() map[string]int64 {
	return map[string]int64{
		"disk_read_bytes":  m.ReadBytes(),
		"disk_write_bytes": m.WriteBytes(),
		"disk_read_ops":    m.ReadOps(),
		"disk_write_ops":   m.WriteOps(),
	}
}

// CountingWriter wraps a writer and feeds a meter.
type CountingWriter struct {
	W io.Writer
	M *Meter
	N int64
}

// Write implements io.Writer.
func (c *CountingWriter) Write(p []byte) (int, error) {
	n, err := c.W.Write(p)
	c.N += int64(n)
	if c.M != nil {
		c.M.AddWrite(int64(n))
	}
	return n, err
}

// CountingReader wraps a reader and feeds a meter.
type CountingReader struct {
	R io.Reader
	M *Meter
	N int64
}

// Read implements io.Reader.
func (c *CountingReader) Read(p []byte) (int, error) {
	n, err := c.R.Read(p)
	c.N += int64(n)
	if c.M != nil {
		c.M.AddRead(int64(n))
	}
	return n, err
}

// RawFiler is implemented by opened files that can expose the raw
// operating-system file underneath. The shuffle data plane uses it to
// splice segment bytes straight to a socket (sendfile) instead of
// copying them through user space.
type RawFiler interface {
	RawFile() *os.File
}

// RawFile unwraps r to the underlying *os.File when the implementation
// exposes one (OSFS opened files do). Metered and tracked wrappers
// deliberately do not: bytes that bypass user space also bypass the
// wrapper, so zero-copy callers must meter by post-counting instead.
func RawFile(r io.Reader) (*os.File, bool) {
	switch f := r.(type) {
	case *os.File:
		return f, true
	case RawFiler:
		raw := f.RawFile()
		return raw, raw != nil
	}
	return nil, false
}

// Metered wraps fs so that every byte moving through Create/Open feeds m.
func Metered(fs FS, m *Meter) FS { return &meteredFS{fs: fs, m: m} }

type meteredFS struct {
	fs FS
	m  *Meter
}

func (f *meteredFS) Create(name string) (io.WriteCloser, error) {
	w, err := f.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &meteredWriter{CountingWriter{W: w, M: f.m}, w}, nil
}

func (f *meteredFS) Open(name string) (io.ReadCloser, error) {
	r, err := f.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &meteredReader{CountingReader{R: r, M: f.m}, r}, nil
}

func (f *meteredFS) Remove(name string) error        { return f.fs.Remove(name) }
func (f *meteredFS) Size(name string) (int64, error) { return f.fs.Size(name) }
func (f *meteredFS) List() ([]string, error)         { return f.fs.List() }

type meteredWriter struct {
	CountingWriter
	c io.Closer
}

func (w *meteredWriter) Close() error { return w.c.Close() }

type meteredReader struct {
	CountingReader
	c io.Closer
}

func (r *meteredReader) Close() error { return r.c.Close() }

// memBlockSize is the size of every MemFS block after a file's first:
// the engine's checksum frame and copy-buffer size, so a full frame or
// copy lands in one block.
const memBlockSize = 64 << 10

// MemFS is an in-memory FS. The zero value is not usable; call NewMemFS.
//
// A file is a list of blocks. The first block grows by append, so a
// file smaller than one block costs what a plain byte slice costs; once
// it holds memBlockSize bytes every further block is allocated at full
// size and written once, so bytes allocated track bytes written however
// large the file gets and nothing already written is copied again.
// A file becomes visible at Close and its blocks are never written
// afterwards: readers walk them without a lock, and a reader opened
// before Remove or a re-Create keeps the content it opened (unlink
// semantics; the garbage collector frees the blocks with the last
// reader).
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memData
}

// memData is the content of one file: head is the append-grown first
// block (at most memBlockSize bytes), rest the full-size blocks after it.
type memData struct {
	head []byte
	rest [][]byte
}

// block returns the i-th block, or nil past the last.
func (d *memData) block(i int) []byte {
	switch {
	case i == 0:
		return d.head
	case i <= len(d.rest):
		return d.rest[i-1]
	}
	return nil
}

// size is the file's length: every block of rest but the last is full.
func (d *memData) size() int64 {
	n := len(d.head)
	if last := len(d.rest) - 1; last >= 0 {
		n += last*memBlockSize + len(d.rest[last])
	}
	return int64(n)
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memData)} }

// Create implements FS.
func (m *MemFS) Create(name string) (io.WriteCloser, error) {
	return &memFile{fs: m, name: name}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	data, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return &memReader{data: data}, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(m.files, name)
	return nil
}

// Size implements FS.
func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return data.size(), nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// TotalBytes reports the sum of all file sizes (test helper).
func (m *MemFS) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, data := range m.files {
		total += data.size()
	}
	return total
}

// memFile is the write handle of one file. Its memData is published in
// the MemFS at Close and is only ever written before that.
type memFile struct {
	fs   *MemFS
	name string
	data memData
	done bool
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.done {
		return 0, errors.New("iokit: write after close")
	}
	total := len(p)
	d := &f.data
	if room := memBlockSize - len(d.head); room > 0 && len(d.rest) == 0 {
		n := min(room, len(p))
		d.head = append(d.head, p[:n]...)
		p = p[n:]
	}
	for len(p) > 0 {
		last := len(d.rest) - 1
		if last < 0 || len(d.rest[last]) == memBlockSize {
			d.rest = append(d.rest, make([]byte, 0, memBlockSize))
			last++
		}
		n := min(memBlockSize-len(d.rest[last]), len(p))
		d.rest[last] = append(d.rest[last], p[:n]...)
		p = p[n:]
	}
	return total, nil
}

func (f *memFile) Close() error {
	if f.done {
		return nil
	}
	f.done = true
	f.fs.mu.Lock()
	f.fs.files[f.name] = &f.data
	f.fs.mu.Unlock()
	return nil
}

// memReader reads a published file block by block.
type memReader struct {
	data  *memData
	block int // index of the block being read
	off   int // bytes of it already read
}

func (r *memReader) Read(p []byte) (int, error) {
	for {
		b := r.data.block(r.block)
		if b == nil {
			return 0, io.EOF
		}
		if r.off < len(b) {
			n := copy(p, b[r.off:])
			r.off += n
			return n, nil
		}
		r.block, r.off = r.block+1, 0
	}
}

func (r *memReader) Close() error { return nil }

// OSFS stores files under a root directory. File names may contain
// slashes; parent directories are created on demand.
type OSFS struct {
	root string
}

// NewOSFS returns an FS rooted at dir.
func NewOSFS(dir string) *OSFS { return &OSFS{root: dir} }

func (o *OSFS) path(name string) string { return filepath.Join(o.root, filepath.FromSlash(name)) }

// Create implements FS.
func (o *OSFS) Create(name string) (io.WriteCloser, error) {
	p := o.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	return os.Create(p)
}

// Open implements FS.
func (o *OSFS) Open(name string) (io.ReadCloser, error) {
	f, err := os.Open(o.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return f, err
}

// Remove implements FS.
func (o *OSFS) Remove(name string) error {
	err := os.Remove(o.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return err
}

// Size implements FS.
func (o *OSFS) Size(name string) (int64, error) {
	info, err := os.Stat(o.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// List implements FS.
func (o *OSFS) List() ([]string, error) {
	var names []string
	err := filepath.Walk(o.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(o.root, path)
		if err != nil {
			return err
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}
