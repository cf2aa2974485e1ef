package mr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Integrity framing. Every spill, merge, and map-output segment and
// every record file is written as a sequence of CRC32C-protected blocks:
//
//	uvarint(len+1) | crc32c (4 bytes, little-endian) | payload
//
// terminated by a single zero byte (len+1 == 0 never occurs for a real
// block, so the terminator is unambiguous). The framing wraps the
// codec-compressed stream — it is the outermost layer on disk — so the
// same bytes a local merge verifies are what the shuffle serves over
// TCP, and a fetcher can verify them without decompressing. A corrupt,
// truncated, or trailing-garbage stream surfaces as ErrIntegrity, which
// the engine classifies as transient: local reads retry the attempt,
// and cluster fetches feed the unreachable-source blacklist and the
// DepLostError re-execution path instead of poisoning reduce output.
// Record files (RecordWriter with no codec: pipeline handoffs, job
// output, and anticombine's Shared spill and merge runs) carry the same
// framing without a codec layer, so they cross the data plane under the
// same verifier and a flipped bit in a Shared run is ErrIntegrity too.

// ErrIntegrity marks structurally corrupt segment data: a bad frame
// length, a checksum mismatch, a truncated frame, or trailing bytes
// after the stream terminator. Underlying I/O errors (e.g. injected
// faults) pass through unwrapped.
var ErrIntegrity = errors.New("mr: segment integrity violation")

// CounterFetchIntegrity is the extra counter incremented once per fetch
// attempt that failed checksum verification.
const CounterFetchIntegrity = "mr.fetchIntegrityFaults"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// checksumBlockSize is the writer's payload size per frame, matching
	// the pooled copy buffers so a frame body always fits one.
	checksumBlockSize = copyBufSize
	// maxChecksumBlock bounds frame lengths the parser accepts, so a
	// corrupt length prefix cannot force a huge allocation.
	maxChecksumBlock = 1 << 20
)

// integrityTruncated classifies a mid-frame read error: EOF means the
// stream ended inside a frame (truncation → ErrIntegrity); anything
// else is a real I/O error and passes through unwrapped so fault
// classification (e.g. iokit.ErrInjected) still sees it.
func integrityTruncated(err error, what string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated %s", ErrIntegrity, what)
	}
	return err
}

// checksumWriter frames its input into CRC32C blocks. Close writes the
// pending block and the stream terminator; it never closes the
// underlying writer.
type checksumWriter struct {
	w      io.Writer
	buf    []byte // pooled block buffer, filled to checksumBlockSize
	closed bool
}

func newChecksumWriter(w io.Writer) *checksumWriter {
	return &checksumWriter{w: w, buf: getCopyBuf()[:0]}
}

// Write implements io.Writer, accumulating p into full blocks. A write
// that arrives on an empty buffer with a whole block in hand — the
// record writer above flushes exactly checksumBlockSize at a time — is
// framed where it lies instead of being copied into the buffer first.
func (c *checksumWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		if len(c.buf) == 0 && len(p) >= checksumBlockSize {
			if err := c.writeFrame(p[:checksumBlockSize]); err != nil {
				return 0, err
			}
			p = p[checksumBlockSize:]
			continue
		}
		n := checksumBlockSize - len(c.buf)
		if n > len(p) {
			n = len(p)
		}
		c.buf = append(c.buf, p[:n]...)
		p = p[n:]
		if len(c.buf) == checksumBlockSize {
			if err := c.flushBlock(); err != nil {
				return 0, err
			}
		}
	}
	return total, nil
}

func (c *checksumWriter) flushBlock() error {
	if len(c.buf) == 0 {
		return nil
	}
	err := c.writeFrame(c.buf)
	c.buf = c.buf[:0]
	return err
}

// writeFrame writes one frame: header, checksum, payload.
func (c *checksumWriter) writeFrame(payload []byte) error {
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload))+1)
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(payload, castagnoli))
	if _, err := c.w.Write(hdr[:n+4]); err != nil {
		return err
	}
	_, err := c.w.Write(payload)
	return err
}

// Close flushes the pending block and writes the terminator. Idempotent;
// returns the pooled buffer either way.
func (c *checksumWriter) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.flushBlock()
	if err == nil {
		_, err = c.w.Write([]byte{0})
	}
	putCopyBuf(c.buf)
	c.buf = nil
	return err
}

// release abandons the writer without emitting anything further — for
// tearing down a sink whose setup failed after the writer was built.
func (c *checksumWriter) release() {
	if c.closed {
		return
	}
	c.closed = true
	putCopyBuf(c.buf)
	c.buf = nil
}

// crcReader parses and verifies a CRC32C-framed stream — the one
// parser behind both ways the engine reads one. Stripping (local merge
// reads) it delivers the payload stream; raw (shuffle fetches, see
// NewIntegrityVerifier) it delivers the stream unchanged, framing
// included, so the copy that lands on disk is still framed and a later
// local read re-verifies it. Either way no byte of a frame is delivered
// before the whole frame verified, the stream must end at its
// terminator (a premature EOF and trailing data are both corruption),
// any structural fault is sticky and surfaces as ErrIntegrity, and
// underlying I/O errors pass through unwrapped.
type crcReader struct {
	r    io.Reader
	raw  bool
	buf  []byte // pooled payload buffer; nil once released
	head []byte // raw mode: pending framing bytes (header+CRC, or the terminator)
	body []byte // pending payload
	hdr  [binary.MaxVarintLen64 + 4]byte
	err  error // sticky; may be set while head still holds the terminator
}

func newCRCReader(r io.Reader, raw bool) *crcReader {
	return &crcReader{r: r, raw: raw, buf: getCopyBuf()}
}

// NewIntegrityVerifier wraps a framed stream (a segment or a record
// file) in a verifying pass-through: the raw mode of the engine's one
// frame reader. Every fetch that crosses a socket lands through it.
func NewIntegrityVerifier(r io.Reader) io.Reader { return newCRCReader(r, true) }

// Read implements io.Reader.
func (f *crcReader) Read(p []byte) (int, error) {
	for len(f.head) == 0 && len(f.body) == 0 {
		if f.err != nil {
			f.release()
			return 0, f.err
		}
		f.err = f.next()
	}
	n := copy(p, f.head)
	if f.head = f.head[n:]; len(f.head) == 0 {
		m := copy(p[n:], f.body)
		f.body = f.body[m:]
		n += m
	}
	return n, nil
}

// next reads and verifies one frame into head/body. At the terminator
// it returns io.EOF (leaving the terminator byte in head in raw mode).
func (f *crcReader) next() error {
	// Frame length: a uvarint read byte by byte, so overflow is
	// classified as corruption (binary.ReadUvarint's overflow error is
	// untyped) and nothing past the header is consumed.
	var lenPlus uint64
	n := 0
	for shift := uint(0); ; shift += 7 {
		if _, err := io.ReadFull(f.r, f.hdr[n:n+1]); err != nil {
			if n == 0 && errors.Is(err, io.EOF) {
				return fmt.Errorf("%w: stream ended without terminator", ErrIntegrity)
			}
			return integrityTruncated(err, "frame header")
		}
		b := f.hdr[n]
		if n++; n == binary.MaxVarintLen64 && b > 1 {
			return fmt.Errorf("%w: frame header overflow", ErrIntegrity)
		}
		lenPlus |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	if lenPlus == 0 {
		// Terminator. A well-formed stream ends exactly here; any
		// trailing byte is corruption a plain EOF check would miss.
		switch _, err := io.ReadFull(f.r, f.hdr[n:n+1]); {
		case err == nil:
			return fmt.Errorf("%w: trailing data after stream terminator", ErrIntegrity)
		case errors.Is(err, io.EOF):
			if f.raw {
				f.head = f.hdr[:n]
			}
			return io.EOF
		default:
			return err
		}
	}
	size := lenPlus - 1
	if size > maxChecksumBlock {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrIntegrity, size, maxChecksumBlock)
	}
	if _, err := io.ReadFull(f.r, f.hdr[n:n+4]); err != nil {
		return integrityTruncated(err, "frame checksum")
	}
	want := binary.LittleEndian.Uint32(f.hdr[n:])
	if int(size) > cap(f.buf) {
		f.buf = make([]byte, size) // the pooled buffer is dropped, as a foreign writer's frame is rare
	}
	payload := f.buf[:size]
	if _, err := io.ReadFull(f.r, payload); err != nil {
		return integrityTruncated(err, "frame payload")
	}
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrIntegrity, got, want)
	}
	if f.raw {
		f.head = f.hdr[:n+4]
	}
	f.body = payload
	return nil
}

// release returns the pooled buffer; the reader is unusable afterwards.
// Read calls it once the stream has ended (either way); a reader that
// may be abandoned mid-stream is released by its owner.
func (f *crcReader) release() {
	if cap(f.buf) == copyBufSize {
		putCopyBuf(f.buf)
	}
	f.buf, f.head, f.body = nil, nil, nil
	if f.err == nil {
		f.err = errors.New("mr: frame reader released")
	}
}
