package mr

import (
	"io"
	"sync"

	"repro/internal/bytesx"
)

// Steady-state buffer pools for the map-output hot path. A map task's
// lifetime churns through a collect arena, entry index slices, one
// framed-record writer per spill run, one framed-record reader per
// opened segment, and one copy buffer per shuffle fetch; pooling them
// makes a steady-state task allocate O(1) per spill instead of
// O(records). Pools never affect output bytes — they only recycle
// scratch memory — and Job.DisablePooling opts a job out entirely (the
// A/B baseline). The transport frame pool below is job-independent:
// wire frames are internal scratch that is copied out before release.
//
// The sync.Pools carry buffers from one run to the next, and only as
// far as the garbage collector lets them: a pooled buffer nobody took
// for two collections is freed. Within a run the multi-megabyte arenas
// and entry slices therefore travel through the run's own runBuffers
// instead, so what a job allocates for them does not depend on where a
// collection happens to fall between two of its map tasks.

var (
	arenaPool   sync.Pool // *[]byte, collect arenas (cap ~SortBufferBytes)
	entriesPool sync.Pool // *[]bufEntry, collect/bucket index slices
	writerPool  sync.Pool // *bytesx.Writer, spill/merge run writers
	readerPool  sync.Pool // *bytesx.Reader, segment readers
	copyBufPool sync.Pool // *[]byte, fixed-size shuffle copy buffers
)

// copyBufSize is the pooled shuffle copy-buffer size, matching the
// record streams' 64 KiB buffering.
const copyBufSize = 64 << 10

// runBuffers is what one Run owns: the arenas and entry slices its
// finished map tasks hand to the ones that start next — at most one
// arena and two entry slices (live index and scatter target) per
// concurrently running task. Run drains it into the sync.Pools when the
// job ends.
type runBuffers struct {
	arenas  freeList[byte]
	entries freeList[bufEntry]
}

func newRunBuffers(parallelism int) *runBuffers {
	return &runBuffers{
		arenas:  freeList[byte]{limit: parallelism},
		entries: freeList[bufEntry]{limit: 2 * parallelism},
	}
}

// drain moves the run's buffers to the cross-run pools.
func (r *runBuffers) drain() {
	for _, b := range r.arenas.takeAll() {
		arenaPool.Put(&b)
	}
	for _, e := range r.entries.takeAll() {
		entriesPool.Put(&e)
	}
}

// freeList is a bounded stack of empty slices kept for their capacity.
type freeList[T any] struct {
	mu    sync.Mutex
	limit int
	items [][]T
}

// get pops a slice, or returns nil when the list is empty.
func (f *freeList[T]) get() []T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return nil
	}
	s := f.items[n-1]
	f.items = f.items[:n-1]
	return s
}

// put pushes s and reports whether the list had room for it.
func (f *freeList[T]) put(s []T) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.items) >= f.limit {
		return false
	}
	f.items = append(f.items, s)
	return true
}

func (f *freeList[T]) takeAll() [][]T {
	f.mu.Lock()
	defer f.mu.Unlock()
	items := f.items
	f.items = nil
	return items
}

func getArena(job *Job) []byte {
	if job.DisablePooling {
		return nil
	}
	if job.bufs != nil {
		if b := job.bufs.arenas.get(); b != nil {
			return b
		}
	}
	if p, ok := arenaPool.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return nil
}

func putArena(job *Job, b []byte) {
	if job.DisablePooling || cap(b) == 0 {
		return
	}
	b = b[:0]
	if job.bufs != nil && job.bufs.arenas.put(b) {
		return
	}
	arenaPool.Put(&b)
}

func getEntries(job *Job) []bufEntry {
	if job.DisablePooling {
		return nil
	}
	if job.bufs != nil {
		if e := job.bufs.entries.get(); e != nil {
			return e
		}
	}
	if p, ok := entriesPool.Get().(*[]bufEntry); ok {
		return (*p)[:0]
	}
	return nil
}

func putEntries(job *Job, e []bufEntry) {
	if job.DisablePooling || cap(e) == 0 {
		return
	}
	e = e[:0]
	if job.bufs != nil && job.bufs.entries.put(e) {
		return
	}
	entriesPool.Put(&e)
}

// getRecordWriter returns a framed-record writer over w, pooled unless
// the job disabled pooling. Callers must putRecordWriter it back after
// reading Records()/Bytes() and before the data is reused.
func getRecordWriter(job *Job, w io.Writer) *bytesx.Writer {
	if !job.DisablePooling {
		if rw, ok := writerPool.Get().(*bytesx.Writer); ok {
			rw.Reset(w)
			return rw
		}
	}
	return bytesx.NewWriter(w)
}

func putRecordWriter(job *Job, rw *bytesx.Writer) {
	if job.DisablePooling {
		return
	}
	rw.Reset(nil)
	writerPool.Put(rw)
}

func getRecordReader(job *Job, r io.Reader) *bytesx.Reader {
	if !job.DisablePooling {
		if rr, ok := readerPool.Get().(*bytesx.Reader); ok {
			rr.Reset(r)
			return rr
		}
	}
	return bytesx.NewReader(r)
}

func putRecordReader(job *Job, rr *bytesx.Reader) {
	if job.DisablePooling {
		return
	}
	rr.Reset(nil)
	readerPool.Put(rr)
}

// getCopyBuf returns a 64 KiB scratch buffer for io.CopyBuffer on the
// shuffle fetch path. job may be nil (job-independent callers).
func getCopyBuf(job *Job) []byte {
	if job != nil && job.DisablePooling {
		return make([]byte, copyBufSize)
	}
	if p, ok := copyBufPool.Get().(*[]byte); ok {
		return *p
	}
	return make([]byte, copyBufSize)
}

func putCopyBuf(job *Job, b []byte) {
	if (job != nil && job.DisablePooling) || cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	copyBufPool.Put(&b)
}

// frameBufPool recycles the transport's length-prefixed frame buffers
// (request names, error strings) so every fetch handshake stops paying
// a per-frame allocation. Frames are small (≤ maxErrFrame) and their
// contents are always copied into a string before release.
var frameBufPool sync.Pool // *[]byte

func getFrameBuf(n int) []byte {
	if p, ok := frameBufPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func putFrameBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	frameBufPool.Put(&b)
}
