package bytesx

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
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
	r *bufio.Reader
	// key and val hold the copies of a record the buffer did not wholly
	// hold; view is the last record returned, which test binaries poison
	// at the next call.
	key, val []byte
	view     [2][]byte
}

// NewReader returns a record reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Reset retargets the reader at src, discarding any buffered data. The
// buffers are kept, so pooled readers converge on steady-state
// allocation-free record decoding. Reset(nil) parks the reader without
// pinning its last source.
func (r *Reader) Reset(src io.Reader) {
	r.poisonView()
	if r.r == nil {
		r.r = bufio.NewReaderSize(src, 64<<10)
	} else {
		r.r.Reset(src)
	}
}

// ReadRecord reads the next record. It returns io.EOF cleanly at the end
// of the stream and an error wrapping both ErrCorrupt and the underlying
// cause on a truncated or failing stream.
//
// A record wholly in the read buffer is decoded in place: its key and
// value are capacity-clipped views into the buffer, consumed with
// Discard, so reading copies nothing. A record the buffer does not hold
// — one straddling its end, or larger than it — is copied out of the
// stream into the reader's own buffers.
func (r *Reader) ReadRecord() (key, value []byte, err error) {
	r.poisonView()
	buf, _ := r.r.Peek(r.r.Buffered())
	if key, value, n := splitRecord(buf); n > 0 {
		_, _ = r.r.Discard(n) // n bytes are buffered: Discard cannot fail
		r.keepView(key, value)
		return key, value, nil
	}
	kl, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, nil, io.EOF
		}
		return nil, nil, corrupt(err)
	}
	if r.key, err = readBytes(r.r, r.key[:0], kl); err != nil {
		return nil, nil, corrupt(err)
	}
	vl, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, nil, corrupt(unexpected(err))
	}
	if r.val, err = readBytes(r.r, r.val[:0], vl); err != nil {
		return nil, nil, corrupt(err)
	}
	key, value = r.key[:kl:kl], r.val[:vl:vl]
	r.keepView(key, value)
	return key, value, nil
}

// splitRecord decodes the framed record at the front of buf into
// capacity-clipped views of its key and value, and returns its framed
// length — or n == 0 when buf does not hold the whole record. Like
// binary.ReadUvarint on the copying path, it accepts any varint that
// decodes.
func splitRecord(buf []byte) (key, value []byte, n int) {
	kl, i := binary.Uvarint(buf)
	if i <= 0 || kl > uint64(len(buf)-i) {
		return nil, nil, 0
	}
	ke := i + int(kl)
	vl, j := binary.Uvarint(buf[ke:])
	if j <= 0 || vl > uint64(len(buf)-ke-j) {
		return nil, nil, 0
	}
	vs := ke + j
	n = vs + int(vl)
	return buf[i:ke:ke], buf[vs:n:n], n
}

// readChunk is the first step by which readBytes grows its buffer.
const readChunk = 64 << 10

// readBytes reads n bytes from src into dst, which it reuses. Each step
// asks for at most as many bytes as have arrived, or readChunk, so a
// large record costs a few doublings and a corrupt length cannot
// allocate more than twice what the stream delivers. A stream that ends
// first fails with io.ErrUnexpectedEOF.
func readBytes(src io.Reader, dst []byte, n uint64) ([]byte, error) {
	for uint64(len(dst)) < n {
		m := int(min(n-uint64(len(dst)), uint64(max(readChunk, len(dst)))))
		dst = slices.Grow(dst, m)
		got, err := io.ReadFull(src, dst[len(dst):len(dst)+m])
		dst = dst[:len(dst)+got]
		if err != nil {
			return dst, unexpected(err)
		}
	}
	return dst, nil
}

// unexpected turns a clean io.EOF inside a record into
// io.ErrUnexpectedEOF: the stream ended partway.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// keepView remembers the record ReadRecord returns, which test binaries
// poison at the next call (or Reset), so a caller that keeps a view past
// its window reads poison instead of plausible bytes. Both views are
// capacity-clipped, so Poison writes over the record and nothing else.
func (r *Reader) keepView(key, value []byte) {
	if poisoning {
		r.view = [2][]byte{key, value}
	}
}

func (r *Reader) poisonView() {
	if poisoning {
		Poison(r.view[0])
		Poison(r.view[1])
		r.view = [2][]byte{}
	}
}

// corrupt wraps a stream failure so callers can match either the framing
// error or the underlying cause (e.g. an injected I/O fault).
func corrupt(cause error) error {
	return fmt.Errorf("%w: %w", ErrCorrupt, cause)
}
