package codec

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Snappy is an LZ77-family codec implementing the Snappy block format
// from scratch: a greedy matcher over a 4-byte hash table emitting
// literal and copy elements. It is the "fast, modest compression" point
// in the codec spectrum of Table 1. Blocks are framed by the shared
// container in blockio.go (Snappy itself defines only a block format).
type Snappy struct{}

// Name implements Codec.
func (Snappy) Name() string { return "snappy" }

// NewWriter implements Codec.
func (Snappy) NewWriter(w io.Writer) (io.WriteCloser, error) {
	return newBlockWriter(w, &snappyFormat), nil
}

// NewReader implements Codec.
func (Snappy) NewReader(r io.Reader) (io.ReadCloser, error) {
	return newBlockReader(r, &snappyFormat), nil
}

const snappyBlockSize = 64 << 10

var snappyFormat = blockFormat{
	blockSize:  snappyBlockSize,
	maxEncoded: snappyMaxEncodedLen(snappyBlockSize),
	compress:   snappyAppendBlock,
	decompress: snappyDecompress,
}

// snappyMaxEncodedLen bounds the coded size of n raw bytes: the
// preamble, the literal bytes themselves, and at most one byte of
// overhead per six input bytes (the format's worst case; this encoder's
// copies never expand and its literal headers cost less).
func snappyMaxEncodedLen(n int) int { return 32 + n + n/6 }

const (
	snappyTagLiteral = 0x00
	snappyTagCopy1   = 0x01
	snappyTagCopy2   = 0x02
	snappyTagCopy4   = 0x03

	snappyHashBits  = 14
	snappyHashShift = 32 - snappyHashBits
)

func snappyHash(u uint32) uint32 { return (u * 0x1e35a7bd) >> snappyHashShift }

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// AppendSnappyBlock appends src compressed as one self-framed Snappy
// block (uvarint raw length + literal/copy elements) to dst. The block
// carries its own raw length, so a transport exchanging blocks only
// needs to delimit the compressed bytes. This is the unit the shuffle
// wire compression sends per chunk.
func AppendSnappyBlock(dst, src []byte) []byte {
	return snappyAppendBlock(dst, src)
}

// DecompressSnappyBlock decodes one block produced by
// AppendSnappyBlock, using the raw length carried in its preamble.
func DecompressSnappyBlock(src []byte) ([]byte, error) {
	rawLen, n := binary.Uvarint(src)
	if n <= 0 || rawLen > 1<<30 {
		return nil, fmt.Errorf("%w: bad snappy preamble", errBlockCorrupt)
	}
	return snappyDecompress(nil, src, int(rawLen))
}

// snappyAppendBlock appends src to dst coded as one Snappy block: a
// uvarint with the uncompressed length followed by literal/copy
// elements. A dst too small for the worst case is replaced by one that
// is not, so coding never regrows it.
func snappyAppendBlock(dst, src []byte) []byte {
	if need := len(dst) + snappyMaxEncodedLen(len(src)); need > cap(dst) {
		dst = append(make([]byte, 0, need), dst...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) < 16 {
		return snappyEmitLiteral(dst, src)
	}

	var table [1 << snappyHashBits]int32
	for i := range table {
		table[i] = -1
	}

	// sLimit leaves room so 4-byte loads never run past the end.
	sLimit := len(src) - 4
	lit := 0 // start of pending literal run
	s := 0
	for s <= sLimit {
		h := snappyHash(load32(src, s))
		cand := table[h]
		table[h] = int32(s)
		if cand >= 0 && s-int(cand) <= 1<<16-1 && load32(src, int(cand)) == load32(src, s) {
			// Extend the match forward. The match may overlap the
			// current position (offset < length); the decoder copies
			// byte by byte, so such matches are valid and essential for
			// periodic data.
			matchLen := 4
			for s+matchLen < len(src) && src[int(cand)+matchLen] == src[s+matchLen] {
				matchLen++
			}
			if lit < s {
				dst = snappyEmitLiteral(dst, src[lit:s])
			}
			dst = snappyEmitCopy(dst, s-int(cand), matchLen)
			s += matchLen
			lit = s
			continue
		}
		s++
	}
	if lit < len(src) {
		dst = snappyEmitLiteral(dst, src[lit:])
	}
	return dst
}

func snappyEmitLiteral(dst, lit []byte) []byte {
	n := len(lit) - 1
	switch {
	case n < 60:
		dst = append(dst, byte(n)<<2|snappyTagLiteral)
	case n < 1<<8:
		dst = append(dst, 60<<2|snappyTagLiteral, byte(n))
	case n < 1<<16:
		dst = append(dst, 61<<2|snappyTagLiteral, byte(n), byte(n>>8))
	default:
		dst = append(dst, 62<<2|snappyTagLiteral, byte(n), byte(n>>8), byte(n>>16))
	}
	return append(dst, lit...)
}

// snappyEmitCopy emits copy elements covering length bytes at the given
// offset (1 <= offset < 1<<16). Long matches are split into 64-byte
// copy-2 elements.
func snappyEmitCopy(dst []byte, offset, length int) []byte {
	for length > 64 {
		dst = append(dst, 63<<2|snappyTagCopy2, byte(offset), byte(offset>>8))
		length -= 64
	}
	// Prefer the compact copy-1 form when it fits.
	if 4 <= length && length <= 11 && offset < 1<<11 {
		return append(dst,
			byte(offset>>8)<<5|byte(length-4)<<2|snappyTagCopy1,
			byte(offset))
	}
	return append(dst, byte(length-1)<<2|snappyTagCopy2, byte(offset), byte(offset>>8))
}

// snappyDecompress decodes one Snappy block of rawLen bytes into dst's
// storage (reallocated when it is too small), never writing past rawLen.
func snappyDecompress(dst, src []byte, rawLen int) ([]byte, error) {
	declared, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad snappy preamble", errBlockCorrupt)
	}
	if int(declared) != rawLen {
		return nil, fmt.Errorf("%w: snappy preamble %d != frame %d", errBlockCorrupt, declared, rawLen)
	}
	src = src[n:]
	if cap(dst) < rawLen {
		dst = make([]byte, 0, rawLen)
	}
	dst = dst[:0]
	for len(src) > 0 {
		tag := src[0]
		var offset, length int
		switch tag & 0x03 {
		case snappyTagLiteral:
			litLen := int(tag >> 2)
			hdr := 1
			switch {
			case litLen < 60:
				litLen++
			case litLen == 60:
				if len(src) < 2 {
					return nil, errBlockCorrupt
				}
				litLen = int(src[1]) + 1
				hdr = 2
			case litLen == 61:
				if len(src) < 3 {
					return nil, errBlockCorrupt
				}
				litLen = int(src[1]) | int(src[2])<<8
				litLen++
				hdr = 3
			case litLen == 62:
				if len(src) < 4 {
					return nil, errBlockCorrupt
				}
				litLen = int(src[1]) | int(src[2])<<8 | int(src[3])<<16
				litLen++
				hdr = 4
			default:
				if len(src) < 5 {
					return nil, errBlockCorrupt
				}
				litLen = int(src[1]) | int(src[2])<<8 | int(src[3])<<16 | int(src[4])<<24
				litLen++
				hdr = 5
			}
			if len(src) < hdr+litLen || litLen > rawLen-len(dst) {
				return nil, errBlockCorrupt
			}
			dst = append(dst, src[hdr:hdr+litLen]...)
			src = src[hdr+litLen:]
			continue
		case snappyTagCopy1:
			if len(src) < 2 {
				return nil, errBlockCorrupt
			}
			length = 4 + int(tag>>2)&0x07
			offset = int(tag&0xe0)<<3 | int(src[1])
			src = src[2:]
		case snappyTagCopy2:
			if len(src) < 3 {
				return nil, errBlockCorrupt
			}
			length = 1 + int(tag>>2)
			offset = int(src[1]) | int(src[2])<<8
			src = src[3:]
		case snappyTagCopy4:
			if len(src) < 5 {
				return nil, errBlockCorrupt
			}
			length = 1 + int(tag>>2)
			offset = int(src[1]) | int(src[2])<<8 | int(src[3])<<16 | int(src[4])<<24
			src = src[5:]
		}
		if offset <= 0 || offset > len(dst) {
			return nil, fmt.Errorf("%w: snappy copy offset %d past %d decoded bytes", errBlockCorrupt, offset, len(dst))
		}
		if length > rawLen-len(dst) {
			return nil, fmt.Errorf("%w: snappy copy of %d bytes past the block's %d", errBlockCorrupt, length, rawLen)
		}
		if offset >= length {
			start := len(dst) - offset
			dst = append(dst, dst[start:start+length]...)
			continue
		}
		// An overlapping copy reads bytes it has just written, so it
		// must proceed byte by byte.
		for i := 0; i < length; i++ {
			dst = append(dst, dst[len(dst)-offset])
		}
	}
	if len(dst) != rawLen {
		return nil, fmt.Errorf("%w: snappy decoded %d bytes, want %d", errBlockCorrupt, len(dst), rawLen)
	}
	return dst, nil
}
