// Package anticombine implements Anti-Combining (Okcan & Riedewald,
// SIGMOD 2014): an adaptive runtime optimization that reduces
// mapper-to-reducer data transfer by shifting mapper work to the
// reducers. Wrap transforms any mr.Job — treating its Mapper, Reducer,
// Combiner and Partitioner as black boxes, the Go analogue of the
// paper's purely syntactic class rewrite — so that each Map call's
// output is encoded per reduce partition with whichever of the
// strategies is cheapest to ship:
//
//   - Plain:   the record itself plus a one-byte flag (EagerSH's
//     degenerate case with an empty key set);
//   - EagerSH: records sharing a value within one partition collapse
//     into a single record keyed by the minimal key, the remaining keys
//     riding in the value component;
//   - LazySH:  the Map *input* record is sent once per touched
//     partition, keyed by that partition's minimal output key, and Map
//     is re-executed on the reducer to regenerate the output.
//
// A reduce-task-level Shared structure carries decoded records between
// Reduce calls, draining in key order so the original Reduce sees
// exactly the groups it would have seen, in the same order.
package anticombine

import (
	"errors"
	"fmt"

	"repro/internal/bytesx"
)

// Encoding flags stored as the first byte of every encoded value
// component — the "few extra bits" §7.1 charges to AdaptiveSH.
const (
	// EncPlain marks an unshared record: flag + original value.
	EncPlain byte = 0
	// EncEager marks an EagerSH record: flag + uvarint key count +
	// length-prefixed other keys + the shared value.
	EncEager byte = 1
	// EncLazy marks a LazySH record: flag + length-prefixed Map input
	// key + Map input value.
	EncLazy byte = 2
)

// ErrBadEncoding reports a value component that cannot be decoded.
var ErrBadEncoding = errors.New("anticombine: bad encoded value")

// AppendPlainValue encodes an unshared value.
func AppendPlainValue(dst, value []byte) []byte {
	dst = append(dst, EncPlain)
	return append(dst, value...)
}

// PlainValueSize reports the encoded size of a plain value component.
func PlainValueSize(value []byte) int { return 1 + len(value) }

// AppendEagerValue encodes a value shared by the representative key and
// otherKeys. An empty otherKeys list is legal and equivalent to plain.
func AppendEagerValue(dst []byte, otherKeys [][]byte, value []byte) []byte {
	dst = append(dst, EncEager)
	dst = bytesx.AppendUvarint(dst, uint64(len(otherKeys)))
	for _, k := range otherKeys {
		dst = bytesx.AppendBytes(dst, k)
	}
	return append(dst, value...)
}

// AppendLazyValue encodes a Map input record for reducer-side
// re-execution.
func AppendLazyValue(dst, inputKey, inputValue []byte) []byte {
	dst = append(dst, EncLazy)
	dst = bytesx.AppendBytes(dst, inputKey)
	return append(dst, inputValue...)
}

// LazyValueSize reports the encoded size of a LazySH value component.
func LazyValueSize(inputKey, inputValue []byte) int {
	return 1 + bytesx.UvarintLen(uint64(len(inputKey))) + len(inputKey) + len(inputValue)
}

// Decoded is the parsed form of an encoded value component. All byte
// slices alias the decoded buffer.
type Decoded struct {
	Enc byte
	// Value is the (shared) value for Plain and Eager records.
	Value []byte
	// OtherKeys are the non-representative keys of an Eager record.
	OtherKeys [][]byte
	// InputKey and InputValue are the Map input of a Lazy record.
	InputKey   []byte
	InputValue []byte
}

// DecodeValue parses an encoded value component.
func DecodeValue(buf []byte) (Decoded, error) { return decodeValue(buf, nil) }

// decodeValue is DecodeValue with an EagerSH record's OtherKeys built in
// keys' backing array when it is large enough, so a caller that hands
// the previous call's OtherKeys back decodes without allocating.
func decodeValue(buf []byte, keys [][]byte) (Decoded, error) {
	if len(buf) == 0 {
		return Decoded{}, fmt.Errorf("%w: empty", ErrBadEncoding)
	}
	switch buf[0] {
	case EncPlain:
		return Decoded{Enc: EncPlain, Value: buf[1:]}, nil
	case EncEager:
		rest := buf[1:]
		n, used, err := bytesx.Uvarint(rest)
		if err != nil {
			return Decoded{}, fmt.Errorf("%w: eager key count: %v", ErrBadEncoding, err)
		}
		rest = rest[used:]
		if n > uint64(len(rest)) {
			return Decoded{}, fmt.Errorf("%w: eager key count %d too large", ErrBadEncoding, n)
		}
		if uint64(cap(keys)) < n {
			keys = make([][]byte, 0, n)
		}
		keys = keys[:0]
		for i := uint64(0); i < n; i++ {
			k, used, err := bytesx.GetBytes(rest)
			if err != nil {
				return Decoded{}, fmt.Errorf("%w: eager key %d: %v", ErrBadEncoding, i, err)
			}
			keys = append(keys, k)
			rest = rest[used:]
		}
		return Decoded{Enc: EncEager, OtherKeys: keys, Value: rest}, nil
	case EncLazy:
		rest := buf[1:]
		k, used, err := bytesx.GetBytes(rest)
		if err != nil {
			return Decoded{}, fmt.Errorf("%w: lazy input key: %v", ErrBadEncoding, err)
		}
		return Decoded{Enc: EncLazy, InputKey: k, InputValue: rest[used:]}, nil
	}
	return Decoded{}, fmt.Errorf("%w: unknown flag %d", ErrBadEncoding, buf[0])
}
