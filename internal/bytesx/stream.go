package bytesx

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Writer writes framed (key, value) records to an underlying stream.
// It buffers internally; callers must Flush (or Close the sink) before
// reading the data back.
type Writer struct {
	w       *bufio.Writer
	scratch []byte
	records int64
	bytes   int64
}

// NewWriter returns a record writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// WriteRecord appends one framed record.
func (w *Writer) WriteRecord(key, value []byte) error {
	w.scratch = w.scratch[:0]
	w.scratch = AppendRecord(w.scratch, key, value)
	n, err := w.w.Write(w.scratch)
	w.records++
	w.bytes += int64(n)
	return err
}

// Flush flushes buffered records to the underlying stream.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reset discards any buffered state, retargets the writer at dst, and
// zeroes the record and byte counters, so writers (and their 64 KiB
// buffers) can be pooled across spill runs instead of reallocated.
// Reset(nil) parks the writer without holding a reference to its last
// destination; a parked writer must be Reset again before use.
func (w *Writer) Reset(dst io.Writer) {
	if w.w == nil {
		w.w = bufio.NewWriterSize(dst, 64<<10)
	} else {
		w.w.Reset(dst)
	}
	w.records = 0
	w.bytes = 0
}

// Record writers and readers are pooled with their 64 KiB buffers: a
// spill, a merge or an opened segment takes one for its life and puts it
// back, instead of allocating a fresh buffer per file.
var writerPool, readerPool sync.Pool // *Writer, *Reader

// GetWriter returns a pooled record writer over dst. Read Records and
// Bytes before PutWriter gives it back.
func GetWriter(dst io.Writer) *Writer {
	if w, ok := writerPool.Get().(*Writer); ok {
		w.Reset(dst)
		return w
	}
	return NewWriter(dst)
}

// PutWriter parks w and pools it. Buffered records not yet flushed are
// discarded.
func PutWriter(w *Writer) {
	w.Reset(nil)
	writerPool.Put(w)
}

// GetReader returns a pooled record reader over src.
func GetReader(src io.Reader) *Reader {
	if r, ok := readerPool.Get().(*Reader); ok {
		r.Reset(src)
		return r
	}
	return NewReader(src)
}

// PutReader parks r and pools it. The records it returned are invalid
// after.
func PutReader(r *Reader) {
	r.Reset(nil)
	readerPool.Put(r)
}

// Records reports how many records have been written.
func (w *Writer) Records() int64 { return w.records }

// Bytes reports how many framed bytes have been written.
func (w *Writer) Bytes() int64 { return w.bytes }

// Reader reads framed (key, value) records from an underlying stream.
// The slices returned by ReadRecord are valid until the next call.
type Reader struct {
	r   *bufio.Reader
	key []byte
	val []byte
}

// NewReader returns a record reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Reset retargets the reader at src, discarding any buffered data. The
// key/value scratch buffers are kept, so pooled readers converge on
// steady-state allocation-free record decoding. Reset(nil) parks the
// reader without pinning its last source.
func (r *Reader) Reset(src io.Reader) {
	if r.r == nil {
		r.r = bufio.NewReaderSize(src, 64<<10)
	} else {
		r.r.Reset(src)
	}
}

// ReadRecord reads the next record. It returns io.EOF cleanly at the end
// of the stream and an error wrapping both ErrCorrupt and the underlying
// cause on a truncated or failing stream.
func (r *Reader) ReadRecord() (key, value []byte, err error) {
	kl, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, nil, io.EOF
		}
		return nil, nil, corrupt(err)
	}
	r.key = grow(r.key, int(kl))
	if _, err := io.ReadFull(r.r, r.key); err != nil {
		return nil, nil, corrupt(err)
	}
	vl, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, nil, corrupt(err)
	}
	r.val = grow(r.val, int(vl))
	if _, err := io.ReadFull(r.r, r.val); err != nil {
		return nil, nil, corrupt(err)
	}
	return r.key, r.val, nil
}

// corrupt wraps a stream failure so callers can match either the framing
// error or the underlying cause (e.g. an injected I/O fault).
func corrupt(cause error) error {
	return fmt.Errorf("%w: %w", ErrCorrupt, cause)
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
