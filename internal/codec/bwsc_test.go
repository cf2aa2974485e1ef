package codec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBWTKnown(t *testing.T) {
	// Classic example: rotations of "banana".
	bwt, primary := bwtForward([]byte("banana"))
	got := bwtInverse(nil, bwt, primary)
	if string(got) != "banana" {
		t.Errorf("inverse = %q", got)
	}
	if string(bwt) != "nnbaaa" {
		t.Errorf("bwt(banana) = %q, want nnbaaa", bwt)
	}
}

func TestBWTEdgeCases(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{255},
		[]byte("a"),
		[]byte("aa"),
		[]byte("ab"),
		[]byte("abab"),
		bytes.Repeat([]byte{7}, 5000),
		bytes.Repeat([]byte("xy"), 3000),
	}
	for _, s := range cases {
		bwt, primary := bwtForward(s)
		got := bwtInverse(nil, bwt, primary)
		if !bytes.Equal(got, s) {
			t.Errorf("BWT round trip failed for %d-byte input %q...", len(s), truncate(s))
		}
	}
}

func truncate(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}

func TestBWTPropertyRoundTrip(t *testing.T) {
	f := func(s []byte) bool {
		bwt, primary := bwtForward(s)
		return bytes.Equal(bwtInverse(nil, bwt, primary), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMTFRoundTrip(t *testing.T) {
	f := func(s []byte) bool {
		return bytes.Equal(mtfDecode(mtfEncode(s)), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMTFKnown(t *testing.T) {
	// "aaa" -> first 'a' is at index 97, then at front.
	got := mtfEncode([]byte("aaa"))
	if got[0] != 97 || got[1] != 0 || got[2] != 0 {
		t.Errorf("mtf(aaa) = %v", got)
	}
}

func TestRLE0RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(2000)
		mtf := make([]byte, n)
		for i := range mtf {
			if rng.Intn(3) > 0 { // bias toward zeros like real MTF output
				mtf[i] = 0
			} else {
				mtf[i] = byte(rng.Intn(255) + 1)
			}
		}
		syms := rle0Encode(mtf)
		got, err := rle0Decode(syms, len(mtf))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, mtf) {
			t.Fatalf("trial %d: RLE0 mismatch", trial)
		}
	}
}

func TestRLE0LongRuns(t *testing.T) {
	for _, runLen := range []int{1, 2, 3, 4, 7, 255, 256, 65535} {
		mtf := make([]byte, runLen)
		syms := rle0Encode(mtf)
		got, err := rle0Decode(syms, runLen)
		if err != nil || len(got) != runLen {
			t.Fatalf("run %d: err=%v len=%d", runLen, err, len(got))
		}
	}
}

func TestRLE0Corrupt(t *testing.T) {
	if _, err := rle0Decode([]int{300}, 10); err == nil {
		t.Error("out-of-range symbol should error")
	}
	if _, err := rle0Decode([]int{symRunA, symRunA, symRunA}, 1); err == nil {
		t.Error("overlong run should error")
	}
}

func TestHuffmanLengthsKraft(t *testing.T) {
	// Kraft inequality must hold with equality for any optimal code over
	// 2+ symbols.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		freq := make([]int, bwscAlphabet)
		nsym := rng.Intn(200) + 2
		for i := 0; i < nsym; i++ {
			freq[rng.Intn(bwscAlphabet)] += rng.Intn(1000) + 1
		}
		lengths := huffmanCodeLengths(freq)
		var kraft float64
		for s, l := range lengths {
			if freq[s] > 0 && l == 0 {
				t.Fatalf("trial %d: symbol %d has freq %d but zero length", trial, s, freq[s])
			}
			if l > 0 {
				kraft += 1 / float64(uint64(1)<<uint(l))
			}
		}
		if kraft > 1.0000001 {
			t.Fatalf("trial %d: kraft = %f > 1", trial, kraft)
		}
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	freq := make([]int, bwscAlphabet)
	freq[symEOB] = 1
	lengths := huffmanCodeLengths(freq)
	if lengths[symEOB] != 1 {
		t.Errorf("single-symbol length = %d, want 1", lengths[symEOB])
	}
}

func TestCanonicalDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		freq := make([]int, bwscAlphabet)
		freq[symEOB] = 1
		n := rng.Intn(5000) + 1
		symbols := make([]int, n)
		for i := range symbols {
			s := rng.Intn(bwscAlphabet - 1)
			symbols[i] = s
			freq[s]++
		}
		lengths := huffmanCodeLengths(freq)
		codes := canonicalCodes(lengths)
		var w bitWriter
		for _, s := range symbols {
			w.writeBits(codes[s], uint(lengths[s]))
		}
		w.writeBits(codes[symEOB], uint(lengths[symEOB]))
		dec, err := newCanonicalDecoder(lengths)
		if err != nil {
			t.Fatal(err)
		}
		r := bitReader{buf: w.finish()}
		for i, want := range symbols {
			got, ok := dec.decode(&r)
			if !ok || got != want {
				t.Fatalf("trial %d sym %d: got %d ok=%v want %d", trial, i, got, ok, want)
			}
		}
		if got, ok := dec.decode(&r); !ok || got != symEOB {
			t.Fatalf("trial %d: EOB: got %d ok=%v", trial, got, ok)
		}
	}
}

func TestBitIO(t *testing.T) {
	var w bitWriter
	w.writeBits(0b1, 1)
	w.writeBits(0b0110, 4)
	w.writeBits(0xdeadbeef, 32)
	buf := w.finish()
	r := bitReader{buf: buf}
	read := func(n uint) uint32 {
		var v uint32
		for i := uint(0); i < n; i++ {
			v = v<<1 | r.readBit()
		}
		return v
	}
	if got := read(1); got != 1 {
		t.Errorf("bit 1: %d", got)
	}
	if got := read(4); got != 0b0110 {
		t.Errorf("bits 2-5: %b", got)
	}
	if got := read(32); got != 0xdeadbeef {
		t.Errorf("word: %x", got)
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := bitReader{buf: []byte{0xff}}
	for i := 0; i < 8; i++ {
		if r.readBit() != 1 || r.err {
			t.Fatal("first 8 bits should be 1")
		}
	}
	r.readBit()
	if !r.err {
		t.Error("reading past the end should set err")
	}
}

func TestBWSCDecompressCorrupt(t *testing.T) {
	if _, err := bwscDecompress(nil, []byte{0, 0}, 10); err == nil {
		t.Error("short block should error")
	}
	// A well-formed header with garbage code lengths.
	bad := make([]byte, 3+bwscAlphabet+4)
	for i := 3; i < 3+bwscAlphabet; i++ {
		bad[i] = 200 // over max code length
	}
	if _, err := bwscDecompress(nil, bad, 10); err == nil {
		t.Error("over-length codes should error")
	}
}

func TestMultiTableRoundTrip(t *testing.T) {
	// A long, regime-shifting stream: the first half is text-like, the
	// second half binary-like, so distinct Huffman tables pay off and
	// the multi format is chosen.
	rng := rand.New(rand.NewSource(29))
	data := make([]byte, 200_000)
	for i := range data[:100_000] {
		data[i] = byte('a' + rng.Intn(8))
	}
	for i := 100_000; i < len(data); i++ {
		data[i] = byte(128 + rng.Intn(64))
	}
	comp := bwscCompress(data)
	if comp[0] != bwscFormatMulti {
		t.Logf("single-table chosen (format %d); multi not cheaper here", comp[0])
	}
	got, err := bwscDecompress(nil, comp, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-table round trip mismatch")
	}
}

func TestMultiTableBeatsSingleOnRegimeShifts(t *testing.T) {
	// Force both encodings on the same symbol stream and compare.
	rng := rand.New(rand.NewSource(31))
	data := make([]byte, 120_000)
	for i := range data[:60_000] {
		data[i] = byte('a' + rng.Intn(6))
	}
	for i := 60_000; i < len(data); i++ {
		data[i] = byte(200 + rng.Intn(40))
	}
	bwt, primary := bwtForward(data)
	syms := rle0Encode(mtfEncode(bwt))
	syms = append(syms, symEOB)
	single := encodeSingle(primary, syms)
	multi := encodeMulti(primary, syms)
	if len(multi) >= len(single) {
		t.Errorf("multi (%d) should beat single (%d) on a regime-shifting block",
			len(multi), len(single))
	}
	// And the multi stream must decode to the same symbols.
	p2, syms2, err := decodeMulti(multi)
	if err != nil || p2 != primary {
		t.Fatalf("decodeMulti: %v primary=%d", err, p2)
	}
	if len(syms2) != len(syms)-1 { // EOB stripped
		t.Fatalf("decoded %d symbols, want %d", len(syms2), len(syms)-1)
	}
	for i := range syms2 {
		if syms2[i] != syms[i] {
			t.Fatalf("symbol %d mismatch", i)
		}
	}
}

func TestDecodeMultiCorrupt(t *testing.T) {
	bad := [][]byte{
		{bwscFormatMulti},
		{bwscFormatMulti, 0, 0, 0, 9},       // table count out of range
		{bwscFormatMulti, 0, 0, 0, 2, 0x05}, // selectors truncated
		{bwscFormatMulti, 0, 0, 0, 2, 1, 0}, // tables truncated
	}
	for i, b := range bad {
		if _, _, err := decodeMulti(b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
