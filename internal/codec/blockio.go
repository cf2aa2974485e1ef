package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

// errBlockCorrupt is returned when a framed compressed block is damaged.
var errBlockCorrupt = errors.New("codec: corrupt block stream")

var errClosed = errors.New("codec: stream used after close")

// blockFormat is what the block container needs to know about a codec:
// its block size, how to code one block, and how large a coded block can
// get — the bound a reader holds a length prefix to before it sizes a
// buffer from it. compress appends the coded block to dst, returning
// the stream's storage; decompress decodes into dst's storage (sized for
// the block) or returns a buffer of its own, which no pool ever gets.
type blockFormat struct {
	blockSize  int
	maxEncoded int // largest compress output for a block of blockSize
	compress   func(dst, src []byte) []byte
	decompress func(dst, src []byte, rawLen int) ([]byte, error)
	bufs       sync.Pool // *blockBufs, given back by closed streams
}

// blockBufs is one stream's storage, sized to the largest block it has
// held: a raw block, and a coded one behind blockHdrRoom bytes, where a
// writer puts the block's two uvarint lengths so that a block leaves in
// one Write.
type blockBufs struct{ raw, coded []byte }

const blockHdrRoom = 2 * binary.MaxVarintLen64

func (f *blockFormat) getBufs() *blockBufs {
	if b, ok := f.bufs.Get().(*blockBufs); ok {
		return b
	}
	return new(blockBufs)
}

// putBufs takes back a closed stream's buffers. Test binaries poison
// them first, so a view kept past Close reads poison instead of silently
// aliasing the next stream's bytes.
func (f *blockFormat) putBufs(b *blockBufs) {
	if poisonOnPut {
		for _, s := range [][]byte{b.raw, b.coded} {
			s = s[:cap(s)]
			for i := range s {
				s[i] = poisonByte
			}
		}
	}
	b.raw, b.coded = b.raw[:0], b.coded[:0]
	f.bufs.Put(b)
}

var poisonOnPut = testing.Testing()

const poisonByte = 0xDB

// grow returns buf resliced to n bytes, or fresh storage (contents not
// kept) that at least doubles it, up to limit, when it is too small.
func grow(buf []byte, n, limit int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]byte, n, min(max(n, 2*cap(buf)), limit))
}

// blockWriter frames a stream into independently compressed blocks:
// uvarint raw length, uvarint compressed length, compressed bytes.
// It is the shared container for the block codecs (Snappy, BWSC).
type blockWriter struct {
	w    io.Writer
	f    *blockFormat
	bufs *blockBufs // nil after Close
}

func newBlockWriter(w io.Writer, f *blockFormat) *blockWriter {
	return &blockWriter{w: w, f: f, bufs: f.getBufs()}
}

func (b *blockWriter) Write(p []byte) (int, error) {
	if b.bufs == nil {
		return 0, errClosed
	}
	total := len(p)
	for len(p) > 0 {
		room := b.f.blockSize - len(b.bufs.raw)
		if room == 0 {
			if err := b.flushBlock(); err != nil {
				return total - len(p), err
			}
			room = b.f.blockSize
		}
		m := min(room, len(p))
		b.bufs.raw = append(b.bufs.raw, p[:m]...)
		p = p[m:]
	}
	return total, nil
}

// flushBlock codes the filled block behind blockHdrRoom bytes and writes
// its lengths into the tail of that room, header and block in one Write.
func (b *blockWriter) flushBlock() error {
	raw := b.bufs.raw
	if len(raw) == 0 {
		return nil
	}
	out := b.f.compress(append(b.bufs.coded[:0], make([]byte, blockHdrRoom)...), raw)
	b.bufs.coded = out
	var hdr [blockHdrRoom]byte
	h := binary.PutUvarint(hdr[:], uint64(len(raw)))
	h += binary.PutUvarint(hdr[h:], uint64(len(out)-blockHdrRoom))
	start := blockHdrRoom - h
	copy(out[start:], hdr[:h])
	b.bufs.raw = raw[:0]
	_, err := b.w.Write(out[start:])
	return err
}

func (b *blockWriter) Close() error {
	if b.bufs == nil {
		return nil
	}
	err := b.flushBlock()
	b.f.putBufs(b.bufs)
	b.bufs = nil
	return err
}

// blockReader decodes the stream produced by blockWriter. It stops at
// the end of the last block: nothing past it is read from the source.
type blockReader struct {
	r     io.ByteReader
	src   io.Reader
	f     *blockFormat
	bufs  *blockBufs // nil after Close
	block []byte     // the current block's decoded bytes
	pos   int
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
		return &blockReader{r: br, src: r, f: f, bufs: f.getBufs()}
	}
	a := &byteReaderAdapter{r: r}
	return &blockReader{r: a, src: a, f: f, bufs: f.getBufs()}
}

func (b *blockReader) Read(p []byte) (int, error) {
	if b.bufs == nil {
		return 0, errClosed
	}
	for b.pos >= len(b.block) {
		if err := b.nextBlock(); err != nil {
			return 0, err
		}
	}
	n := copy(p, b.block[b.pos:])
	b.pos += n
	return n, nil
}

// truncated reports a source that stopped inside a block: with its own
// error when it failed (a checksum layer's, say), as io.ErrUnexpectedEOF
// when it merely ended.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: %w", errBlockCorrupt, err)
}

func (b *blockReader) nextBlock() error {
	rawLen, err := binary.ReadUvarint(b.r)
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return truncated(err)
	}
	compLen, err := binary.ReadUvarint(b.r)
	if err != nil {
		return truncated(err)
	}
	// No writer produces a block past the codec's block size or its
	// worst-case coded length; checking before any buffer is taken
	// keeps a corrupt prefix from forcing a huge allocation.
	if rawLen > uint64(b.f.blockSize) || compLen > uint64(b.f.maxEncoded) {
		return fmt.Errorf("%w: block of %d raw, %d coded bytes exceeds the codec's limits", errBlockCorrupt, rawLen, compLen)
	}
	b.bufs.coded = grow(b.bufs.coded, int(compLen), b.f.maxEncoded)
	if _, err := io.ReadFull(b.src, b.bufs.coded); err != nil {
		return truncated(err)
	}
	b.bufs.raw = grow(b.bufs.raw, int(rawLen), b.f.blockSize)
	block, err := b.f.decompress(b.bufs.raw[:0], b.bufs.coded, int(rawLen))
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

func (b *blockReader) Close() error {
	if b.bufs != nil {
		b.f.putBufs(b.bufs)
		b.bufs, b.block = nil, nil
	}
	return nil
}
