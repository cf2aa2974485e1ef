package codec

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func allCodecs(t *testing.T) []Codec {
	t.Helper()
	var cs []Codec
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

func roundTrip(t *testing.T, c Codec, data []byte) {
	t.Helper()
	var buf bytes.Buffer
	w, err := c.NewWriter(&buf)
	if err != nil {
		t.Fatalf("%s: NewWriter: %v", c.Name(), err)
	}
	// Write in uneven chunks to exercise block boundaries.
	for off := 0; off < len(data); {
		n := min(1000+off%777, len(data)-off)
		if _, err := w.Write(data[off : off+n]); err != nil {
			t.Fatalf("%s: Write: %v", c.Name(), err)
		}
		off += n
	}
	if err := w.Close(); err != nil {
		t.Fatalf("%s: Close: %v", c.Name(), err)
	}
	r, err := c.NewReader(&buf)
	if err != nil {
		t.Fatalf("%s: NewReader: %v", c.Name(), err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("%s: ReadAll: %v", c.Name(), err)
	}
	r.Close()
	if !bytes.Equal(got, data) {
		t.Fatalf("%s: round trip mismatch: %d bytes in, %d out", c.Name(), len(data), len(got))
	}
}

func testInputs() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 200_000)
	rng.Read(random)
	lowEntropy := make([]byte, 150_000)
	for i := range lowEntropy {
		lowEntropy[i] = byte(rng.Intn(4)) + 'a'
	}
	return map[string][]byte{
		"empty":      {},
		"one":        {42},
		"short":      []byte("hello world"),
		"zeros":      make([]byte, 100_000),
		"periodic":   bytes.Repeat([]byte("abcabc"), 30_000),
		"text":       []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 4000)),
		"random":     random,
		"lowEntropy": lowEntropy,
		"allBytes": func() []byte {
			b := make([]byte, 256*100)
			for i := range b {
				b[i] = byte(i)
			}
			return b
		}(),
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, c := range allCodecs(t) {
		for name, data := range testInputs() {
			t.Run(c.Name()+"/"+name, func(t *testing.T) { roundTrip(t, c, data) })
		}
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	for _, c := range allCodecs(t) {
		c := c
		f := func(data []byte) bool {
			var buf bytes.Buffer
			w, err := c.NewWriter(&buf)
			if err != nil {
				return false
			}
			if _, err := w.Write(data); err != nil {
				return false
			}
			if err := w.Close(); err != nil {
				return false
			}
			r, err := c.NewReader(&buf)
			if err != nil {
				return false
			}
			got, err := io.ReadAll(r)
			if err != nil {
				return false
			}
			return bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("lzma"); err == nil {
		t.Error("expected error for unknown codec")
	}
	if c, err := ByName(""); err != nil || c.Name() != "none" {
		t.Errorf("empty name should map to identity, got %v, %v", c, err)
	}
}

func TestCompressionCharacter(t *testing.T) {
	// On realistic (Zipfian word-frequency) text BWSC should achieve the
	// best ratio of the codec set and Snappy the worst non-trivial one,
	// mirroring Table 1's bzip2/snappy spectrum.
	data := zipfText(300_000)
	size := func(name string) int {
		c, _ := ByName(name)
		var buf bytes.Buffer
		w, _ := c.NewWriter(&buf)
		w.Write(data)
		w.Close()
		return buf.Len()
	}
	bwsc, gz, sn := size("bwsc"), size("gzip"), size("snappy")
	if bwsc >= gz {
		t.Errorf("BWSC (%d) should beat gzip (%d) on redundant text", bwsc, gz)
	}
	if sn >= len(data) {
		t.Errorf("snappy (%d) should compress redundant text (%d raw)", sn, len(data))
	}
	if gz >= sn {
		t.Errorf("gzip (%d) should beat snappy (%d)", gz, sn)
	}
}

func TestBlockStreamCorrupt(t *testing.T) {
	c := Snappy{}
	var buf bytes.Buffer
	w, _ := c.NewWriter(&buf)
	w.Write(bytes.Repeat([]byte("abc"), 1000))
	w.Close()
	data := buf.Bytes()

	// Truncated stream.
	r, _ := c.NewReader(bytes.NewReader(data[:len(data)-3]))
	if _, err := io.ReadAll(r); err == nil {
		t.Error("truncated stream should error")
	}

	// Corrupting the frame's raw-length varint is always detected: the
	// block's declared length no longer matches.
	mut := append([]byte(nil), data...)
	mut[0] ^= 0x01
	r2, _ := c.NewReader(bytes.NewReader(mut))
	if _, err := io.ReadAll(r2); err == nil {
		t.Error("corrupted frame length not detected")
	}
}

func zipfText(size int) []byte {
	rng := rand.New(rand.NewSource(1))
	vocab := make([]string, 2000)
	for i := range vocab {
		n := rng.Intn(8) + 3
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = string(b)
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(vocab)-1))
	var sb strings.Builder
	for sb.Len() < size {
		sb.WriteString(vocab[z.Uint64()])
		sb.WriteByte(' ')
	}
	return []byte(sb.String())
}

func TestSnappyPeriodicCompresses(t *testing.T) {
	// Overlapping copies must make trivially periodic data tiny: one
	// literal plus a chain of 64-byte copy elements (~3 bytes per 64).
	data := bytes.Repeat([]byte("abc"), 1000)
	comp := snappyAppendBlock(nil, data)
	if len(comp) > 200 {
		t.Errorf("snappy on periodic data: %d bytes, want < 200", len(comp))
	}
}

func TestWriteAfterClose(t *testing.T) {
	for _, c := range []Codec{Snappy{}, BWSC{}} {
		var buf bytes.Buffer
		w, _ := c.NewWriter(&buf)
		w.Close()
		if _, err := w.Write([]byte("x")); err == nil {
			t.Errorf("%s: write after close should fail", c.Name())
		}
		if err := w.Close(); err != nil {
			t.Errorf("%s: double close: %v", c.Name(), err)
		}
	}
}
