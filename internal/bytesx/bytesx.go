// Package bytesx provides byte-level primitives shared across the
// MapReduce engine and the Anti-Combining encodings: unsigned varints,
// length-prefixed key/value record framing, and raw-byte comparators in
// the style of Hadoop's RawComparator.
package bytesx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// ErrCorrupt is returned when a framed record or varint cannot be decoded.
var ErrCorrupt = errors.New("bytesx: corrupt record framing")

// Compare is a total order over raw keys. Negative means a < b, zero
// means equal, positive means a > b.
type Compare func(a, b []byte) int

// Bytes is the default lexicographic byte comparator.
func Bytes(a, b []byte) int { return bytes.Compare(a, b) }

// AppendUvarint appends v to dst in unsigned varint encoding.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// Uvarint decodes an unsigned varint from the front of buf, returning the
// value and the number of bytes consumed. Overlong (non-canonical)
// encodings are rejected so that decode∘encode is the identity on every
// accepted input — a property the fuzz targets pin down.
func Uvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, ErrCorrupt
	}
	if n != UvarintLen(v) {
		return 0, 0, fmt.Errorf("%w: non-canonical varint", ErrCorrupt)
	}
	return v, n, nil
}

// UvarintLen reports how many bytes AppendUvarint would use for v.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendBytes appends a length-prefixed byte string to dst.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// GetBytes decodes a length-prefixed byte string from the front of buf.
// The returned slice aliases buf.
func GetBytes(buf []byte) (b []byte, n int, err error) {
	l, n, err := Uvarint(buf)
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(buf)-n) < l {
		return nil, 0, fmt.Errorf("%w: need %d bytes, have %d", ErrCorrupt, l, len(buf)-n)
	}
	return buf[n : n+int(l)], n + int(l), nil
}

// AppendRecord appends a framed (key, value) record to dst:
// uvarint key length, key bytes, uvarint value length, value bytes.
func AppendRecord(dst, key, value []byte) []byte {
	dst = AppendBytes(dst, key)
	return AppendBytes(dst, value)
}

// RecordLen reports the framed size of a (key, value) record.
func RecordLen(key, value []byte) int {
	return UvarintLen(uint64(len(key))) + len(key) +
		UvarintLen(uint64(len(value))) + len(value)
}

// DecodeRecord decodes a framed record from the front of buf. The
// returned key and value alias buf.
func DecodeRecord(buf []byte) (key, value []byte, n int, err error) {
	key, kn, err := GetBytes(buf)
	if err != nil {
		return nil, nil, 0, err
	}
	value, vn, err := GetBytes(buf[kn:])
	if err != nil {
		return nil, nil, 0, err
	}
	return key, value, kn + vn, nil
}

// Clone returns a copy of b in freshly allocated memory. Clone(nil)
// returns an empty non-nil slice so callers can rely on len semantics.
func Clone(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// The bounds past which a per-instance buffer set — Anti-Combining's
// Shared, a monoid fold table — is dropped at close instead of pooled: a
// reduce task may index millions of values, which one task in a job
// needs and no combiner-sized instance after it should pin.
// MaxPooledEntries bounds the entry slots, MaxPooledBytes every byte the
// set holds besides them.
const (
	MaxPooledEntries = 1 << 15
	MaxPooledBytes   = 4 << 20
)

// PoisonByte is what Poison writes.
const PoisonByte = 0xDB

// poisoning is on in test binaries only: a built binary pays one
// never-taken branch per Poison.
var poisoning = testing.Testing()

// Poison overwrites the whole capacity of b with PoisonByte in test
// binaries and does nothing otherwise. A buffer handed back to a pool,
// or whose views have expired, is poisoned so that a view kept past its
// window reads poison instead of silently aliasing the next owner's
// bytes.
func Poison(b []byte) {
	if !poisoning || cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	b[0] = PoisonByte
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}
