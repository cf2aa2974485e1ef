package codec

import (
	"container/heap"
	"fmt"
	"io"
	"sort"
)

// BWSC ("block-sorting compressor") is a from-scratch codec standing in
// for bzip2, which the Go standard library can only decompress. It uses
// the same pipeline bzip2 does — Burrows-Wheeler transform, move-to-front,
// zero run-length encoding, Huffman coding — and therefore exhibits
// bzip2's experimental character in Table 1: the best compression ratio
// of the codec set at by far the highest CPU cost.
type BWSC struct{}

// Name implements Codec.
func (BWSC) Name() string { return "bwsc" }

// NewWriter implements Codec.
func (BWSC) NewWriter(w io.Writer) (io.WriteCloser, error) {
	return newBlockWriter(w, &bwscFormat), nil
}

// NewReader implements Codec.
func (BWSC) NewReader(r io.Reader) (io.ReadCloser, error) {
	return newBlockReader(r, &bwscFormat), nil
}

// 256 KiB blocks: more BWT context buys a better ratio at slightly
// higher CPU, the direction of bzip2's own -9. The Huffman depth bound
// stays well under bwscMaxCodeLen (log_phi(262144) ≈ 26).
const bwscBlockSize = 256 << 10

// bwscFormat plugs BWSC into the block container. Each stage of the
// pipeline builds its own output, so the container's buffers go unused.
// A block codes to at most the single-table form (bwscCompress emits
// the smaller of the two): format byte, primary index, code lengths,
// and at most one bwscMaxCodeLen-bit code per input byte plus EOB.
var bwscFormat = blockFormat{
	blockSize:  bwscBlockSize,
	maxEncoded: 4 + bwscAlphabet + (bwscBlockSize+1)*bwscMaxCodeLen/8 + 8,
	compress:   func(_, src []byte) []byte { return bwscCompress(src) },
	decompress: func(_, src []byte, rawLen int) ([]byte, error) { return bwscDecompress(src, rawLen) },
}

// The RLE0 alphabet: runs of MTF zeros are written in bijective base 2
// with digits RUNA/RUNB, non-zero MTF symbols are shifted up by one, and
// EOB terminates the block (bzip2's scheme).
const (
	symRunA        = 0
	symRunB        = 1
	symEOB         = 257
	bwscAlphabet   = 258
	bwscMaxCodeLen = 32
)

// bwscCompress encodes one block: format byte, 3-byte primary index,
// then a single- or multi-table Huffman coding of the RLE0 symbols
// (whichever is smaller; multi-table is bzip2's refinement, see
// bwscmulti.go).
func bwscCompress(src []byte) []byte {
	bwt, primary := bwtForward(src)
	mtf := mtfEncode(bwt)
	syms := rle0Encode(mtf)
	syms = append(syms, symEOB)

	single := encodeSingle(primary, syms)
	if len(syms) >= bwscMultiMinSyms {
		if multi := encodeMulti(primary, syms); len(multi) < len(single) {
			return multi
		}
	}
	return single
}

// encodeSingle is the one-table coding: format byte, primary index,
// 258 code-length bytes, bitstream ending with EOB.
func encodeSingle(primary int, syms []int) []byte {
	freq := make([]int, bwscAlphabet)
	for _, s := range syms {
		freq[s]++
	}
	lengths := huffmanCodeLengths(freq)
	codes := canonicalCodes(lengths)

	out := []byte{bwscFormatSingle, byte(primary >> 16), byte(primary >> 8), byte(primary)}
	for _, l := range lengths {
		out = append(out, byte(l))
	}
	w := bitWriter{buf: out}
	for _, s := range syms {
		w.writeBits(codes[s], uint(lengths[s]))
	}
	return w.finish()
}

// decodeSingle reverses encodeSingle, returning the symbols before EOB.
func decodeSingle(src []byte) (primary int, syms []int, err error) {
	if len(src) < 4+bwscAlphabet {
		return 0, nil, fmt.Errorf("%w: bwsc block too short", errBlockCorrupt)
	}
	primary = int(src[1])<<16 | int(src[2])<<8 | int(src[3])
	lengths := make([]int, bwscAlphabet)
	for i := range lengths {
		lengths[i] = int(src[4+i])
		if lengths[i] > bwscMaxCodeLen {
			return 0, nil, fmt.Errorf("%w: bwsc code length %d", errBlockCorrupt, lengths[i])
		}
	}
	dec, err := newCanonicalDecoder(lengths)
	if err != nil {
		return 0, nil, err
	}
	r := bitReader{buf: src[4+bwscAlphabet:]}
	for {
		s, ok := dec.decode(&r)
		if !ok {
			return 0, nil, fmt.Errorf("%w: bwsc bitstream truncated", errBlockCorrupt)
		}
		if s == symEOB {
			return primary, syms, nil
		}
		syms = append(syms, s)
	}
}

// bwscDecompress reverses bwscCompress, dispatching on the format byte.
func bwscDecompress(src []byte, rawLen int) ([]byte, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("%w: empty bwsc block", errBlockCorrupt)
	}
	var (
		primary int
		syms    []int
		err     error
	)
	switch src[0] {
	case bwscFormatSingle:
		primary, syms, err = decodeSingle(src)
	case bwscFormatMulti:
		primary, syms, err = decodeMulti(src)
	default:
		return nil, fmt.Errorf("%w: bwsc format %d", errBlockCorrupt, src[0])
	}
	if err != nil {
		return nil, err
	}
	mtf, err := rle0Decode(syms, rawLen)
	if err != nil {
		return nil, err
	}
	bwt := mtfDecode(mtf)
	if primary >= len(bwt) && len(bwt) > 0 {
		return nil, fmt.Errorf("%w: bwsc primary index %d out of range", errBlockCorrupt, primary)
	}
	return bwtInverse(bwt, primary), nil
}

// rle0Encode rewrites MTF output into the RLE0 alphabet.
func rle0Encode(mtf []byte) []int {
	var out []int
	run := 0
	flush := func() {
		for run > 0 {
			if run&1 == 1 {
				out = append(out, symRunA)
				run = (run - 1) / 2
			} else {
				out = append(out, symRunB)
				run = (run - 2) / 2
			}
		}
	}
	for _, s := range mtf {
		if s == 0 {
			run++
			continue
		}
		flush()
		out = append(out, int(s)+1)
	}
	flush()
	return out
}

// rle0Decode expands RLE0 symbols back into MTF bytes.
func rle0Decode(syms []int, rawLen int) ([]byte, error) {
	out := make([]byte, 0, rawLen)
	run, weight := 0, 1
	flush := func() error {
		if run == 0 {
			return nil
		}
		if len(out)+run > rawLen {
			return fmt.Errorf("%w: bwsc zero run overflows block", errBlockCorrupt)
		}
		for i := 0; i < run; i++ {
			out = append(out, 0)
		}
		run, weight = 0, 1
		return nil
	}
	for _, s := range syms {
		switch {
		case s == symRunA:
			run += weight
			weight *= 2
		case s == symRunB:
			run += 2 * weight
			weight *= 2
		case s >= 2 && s <= 256:
			if err := flush(); err != nil {
				return nil, err
			}
			if len(out)+1 > rawLen {
				return nil, fmt.Errorf("%w: bwsc symbols overflow block", errBlockCorrupt)
			}
			out = append(out, byte(s-1))
		default:
			return nil, fmt.Errorf("%w: bwsc symbol %d out of range", errBlockCorrupt, s)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(out) != rawLen {
		return nil, fmt.Errorf("%w: bwsc decoded %d MTF bytes, want %d", errBlockCorrupt, len(out), rawLen)
	}
	return out, nil
}

// huffmanCodeLengths builds code lengths from symbol frequencies. Symbols
// with zero frequency get length zero. The block size bounds the maximum
// depth well below bwscMaxCodeLen.
func huffmanCodeLengths(freq []int) []int {
	lengths := make([]int, len(freq))
	type node struct {
		weight      int
		sym         int // >= 0 for leaves
		left, right int // indices into nodes for internal
	}
	var nodes []node
	h := &huffHeap{}
	for s, f := range freq {
		if f > 0 {
			nodes = append(nodes, node{weight: f, sym: s, left: -1, right: -1})
			heap.Push(h, huffItem{weight: f, index: len(nodes) - 1})
		}
	}
	switch h.Len() {
	case 0:
		return lengths
	case 1:
		lengths[nodes[0].sym] = 1
		return lengths
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(huffItem)
		b := heap.Pop(h).(huffItem)
		nodes = append(nodes, node{weight: a.weight + b.weight, sym: -1, left: a.index, right: b.index})
		heap.Push(h, huffItem{weight: a.weight + b.weight, index: len(nodes) - 1})
	}
	root := heap.Pop(h).(huffItem).index
	// Iterative depth-first traversal assigning depths as code lengths.
	type frame struct{ idx, depth int }
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := nodes[f.idx]
		if n.sym >= 0 {
			lengths[n.sym] = f.depth
			continue
		}
		stack = append(stack, frame{n.left, f.depth + 1}, frame{n.right, f.depth + 1})
	}
	return lengths
}

type huffItem struct{ weight, index int }

type huffHeap []huffItem

func (h huffHeap) Len() int            { return len(h) }
func (h huffHeap) Less(i, j int) bool  { return h[i].weight < h[j].weight }
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(huffItem)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// canonicalCodes assigns canonical Huffman codes from code lengths:
// symbols sorted by (length, symbol) receive consecutive codes.
func canonicalCodes(lengths []int) []uint32 {
	codes := make([]uint32, len(lengths))
	syms := sortedByLength(lengths)
	code := uint32(0)
	prevLen := 0
	for _, s := range syms {
		l := lengths[s]
		code <<= uint(l - prevLen)
		codes[s] = code
		code++
		prevLen = l
	}
	return codes
}

func sortedByLength(lengths []int) []int {
	var syms []int
	for s, l := range lengths {
		if l > 0 {
			syms = append(syms, s)
		}
	}
	sort.Slice(syms, func(a, b int) bool {
		if lengths[syms[a]] != lengths[syms[b]] {
			return lengths[syms[a]] < lengths[syms[b]]
		}
		return syms[a] < syms[b]
	})
	return syms
}

// canonicalDecoder decodes canonical Huffman bit-by-bit using per-length
// first-code tables.
type canonicalDecoder struct {
	maxLen    int
	firstCode [bwscMaxCodeLen + 1]uint32
	count     [bwscMaxCodeLen + 1]int
	offset    [bwscMaxCodeLen + 1]int
	syms      []int
}

func newCanonicalDecoder(lengths []int) (*canonicalDecoder, error) {
	d := &canonicalDecoder{syms: sortedByLength(lengths)}
	for _, s := range d.syms {
		l := lengths[s]
		d.count[l]++
		if l > d.maxLen {
			d.maxLen = l
		}
	}
	code := uint32(0)
	idx := 0
	for l := 1; l <= d.maxLen; l++ {
		code <<= 1
		d.firstCode[l] = code
		d.offset[l] = idx
		code += uint32(d.count[l])
		idx += d.count[l]
	}
	// A full (or over-full) code would overflow: code must fit in l bits
	// at every level.
	if d.maxLen > 0 && code > 1<<uint(d.maxLen) {
		return nil, fmt.Errorf("%w: over-subscribed huffman code", errBlockCorrupt)
	}
	return d, nil
}

// decode reads one symbol; ok is false when the bitstream is exhausted.
func (d *canonicalDecoder) decode(r *bitReader) (sym int, ok bool) {
	code := uint32(0)
	for l := 1; l <= d.maxLen; l++ {
		code = code<<1 | r.readBit()
		if r.err {
			return 0, false
		}
		if d.count[l] > 0 && code-d.firstCode[l] < uint32(d.count[l]) {
			return d.syms[d.offset[l]+int(code-d.firstCode[l])], true
		}
	}
	return 0, false
}
