package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// errBlockCorrupt is returned when a framed compressed block is damaged.
var errBlockCorrupt = errors.New("codec: corrupt block stream")

// blockFormat is what the block container needs to know about a codec:
// its block size, how to code one block, and how large a coded block can
// get — the bound a reader holds a length prefix to before it sizes a
// buffer from it. compress appends the coded block to dst; decompress
// decodes src into dst's storage when it is large enough. Both may
// ignore dst and return a buffer of their own.
type blockFormat struct {
	blockSize  int
	maxEncoded int // largest compress output for a block of blockSize
	compress   func(dst, src []byte) []byte
	decompress func(dst, src []byte, rawLen int) ([]byte, error)
}

// blockWriter frames a stream into independently compressed blocks:
// uvarint raw length, uvarint compressed length, compressed bytes.
// It is the shared container for the block codecs (Snappy, BWSC). One
// raw and one compressed buffer serve every block of the stream.
type blockWriter struct {
	w      io.Writer
	f      *blockFormat
	buf    []byte // raw bytes of the block being filled
	comp   []byte // compressed block, reused
	hdr    []byte
	closed bool
}

func newBlockWriter(w io.Writer, f *blockFormat) *blockWriter {
	return &blockWriter{w: w, f: f}
}

func (b *blockWriter) Write(p []byte) (int, error) {
	if b.closed {
		return 0, errors.New("codec: write after close")
	}
	total := len(p)
	for len(p) > 0 {
		room := b.f.blockSize - len(b.buf)
		if room == 0 {
			if err := b.flushBlock(); err != nil {
				return total - len(p), err
			}
			room = b.f.blockSize
		}
		n := min(room, len(p))
		b.buf = append(b.buf, p[:n]...)
		p = p[n:]
	}
	return total, nil
}

func (b *blockWriter) flushBlock() error {
	if len(b.buf) == 0 {
		return nil
	}
	b.comp = b.f.compress(b.comp[:0], b.buf)
	b.hdr = binary.AppendUvarint(b.hdr[:0], uint64(len(b.buf)))
	b.hdr = binary.AppendUvarint(b.hdr, uint64(len(b.comp)))
	if _, err := b.w.Write(b.hdr); err != nil {
		return err
	}
	if _, err := b.w.Write(b.comp); err != nil {
		return err
	}
	b.buf = b.buf[:0]
	return nil
}

func (b *blockWriter) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	return b.flushBlock()
}

// blockReader decodes the stream produced by blockWriter, reusing one
// compressed and one decoded buffer across blocks.
type blockReader struct {
	r     io.ByteReader
	raw   io.Reader
	f     *blockFormat
	block []byte
	pos   int
	comp  []byte
}

type byteReaderAdapter struct {
	r   io.Reader
	one [1]byte
}

func (a *byteReaderAdapter) Read(p []byte) (int, error) { return a.r.Read(p) }

func (a *byteReaderAdapter) ReadByte() (byte, error) {
	if _, err := io.ReadFull(a.r, a.one[:]); err != nil {
		return 0, err
	}
	return a.one[0], nil
}

func newBlockReader(r io.Reader, f *blockFormat) *blockReader {
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if ok {
		return &blockReader{r: br, raw: r, f: f}
	}
	a := &byteReaderAdapter{r: r}
	return &blockReader{r: a, raw: a, f: f}
}

func (b *blockReader) Read(p []byte) (int, error) {
	for b.pos >= len(b.block) {
		if err := b.nextBlock(); err != nil {
			return 0, err
		}
	}
	n := copy(p, b.block[b.pos:])
	b.pos += n
	return n, nil
}

func (b *blockReader) nextBlock() error {
	rawLen, err := binary.ReadUvarint(b.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return errBlockCorrupt
	}
	compLen, err := binary.ReadUvarint(b.r)
	if err != nil {
		return errBlockCorrupt
	}
	// No writer produces a block past the codec's block size or its
	// worst-case coded length; checking before any buffer is sized
	// keeps a corrupt prefix from forcing a huge allocation.
	if rawLen > uint64(b.f.blockSize) || compLen > uint64(b.f.maxEncoded) {
		return fmt.Errorf("%w: block of %d raw, %d coded bytes exceeds the codec's limits", errBlockCorrupt, rawLen, compLen)
	}
	if cap(b.comp) < int(compLen) {
		// Doubling, so a stream whose blocks slowly compress worse
		// reallocates a few times, not once per block.
		b.comp = make([]byte, min(max(int(compLen), 2*cap(b.comp)), b.f.maxEncoded))
	}
	b.comp = b.comp[:compLen]
	if _, err := io.ReadFull(b.raw, b.comp); err != nil {
		return errBlockCorrupt
	}
	// The previous block is fully consumed, so its storage is free.
	block, err := b.f.decompress(b.block[:0], b.comp, int(rawLen))
	if err != nil {
		return err
	}
	if len(block) != int(rawLen) {
		return fmt.Errorf("%w: block decoded to %d bytes, want %d", errBlockCorrupt, len(block), rawLen)
	}
	b.block = block
	b.pos = 0
	return nil
}

func (b *blockReader) Close() error { return nil }
