package codec

import (
	"bytes"
	"io"
	"testing"
)

// fuzzRoundTrip checks that arbitrary input survives a compress/
// decompress cycle, and that arbitrary *compressed* input never panics
// the decoder.
func fuzzRoundTrip(f *testing.F, c Codec) {
	f.Add([]byte{})
	f.Add([]byte("hello world hello world"))
	f.Add(bytes.Repeat([]byte{0}, 1000))
	f.Add(bytes.Repeat([]byte("ab"), 500))
	f.Add(hugeBlockPrefix())
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf bytes.Buffer
		w, err := c.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := c.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(data), len(got))
		}

		// Treat the input as a (likely corrupt) compressed stream: the
		// decoder must error or succeed, never panic.
		r2, err := c.NewReader(bytes.NewReader(data))
		if err == nil {
			io.Copy(io.Discard, r2)
			r2.Close()
		}
	})
}

func FuzzSnappy(f *testing.F) { fuzzRoundTrip(f, Snappy{}) }
func FuzzBWSC(f *testing.F)   { fuzzRoundTrip(f, BWSC{}) }

// FuzzSnappyDecompressBlock hammers the raw block decoder.
func FuzzSnappyDecompressBlock(f *testing.F) {
	f.Add(snappyAppendBlock(nil, []byte("some literal data")), 17)
	f.Add([]byte{0x05, 0x10, 'a'}, 5)
	f.Fuzz(func(t *testing.T, data []byte, rawLen int) {
		if rawLen < 0 || rawLen > 1<<20 {
			return
		}
		snappyDecompress(nil, data, rawLen) // must not panic
	})
}

// FuzzBWSCDecompressBlock hammers the raw block decoder.
func FuzzBWSCDecompressBlock(f *testing.F) {
	f.Add(bwscCompress([]byte("block sorting compressor")), 24)
	f.Fuzz(func(t *testing.T, data []byte, rawLen int) {
		if rawLen < 0 || rawLen > 1<<20 {
			return
		}
		bwscDecompress(nil, data, rawLen) // must not panic
	})
}
