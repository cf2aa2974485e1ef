package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/bytesx"
)

// hugeBlockPrefix is a block header announcing 1 GiB raw and 1 GiB
// compressed bytes, followed by a little data: what one flipped bit in a
// length prefix looks like to a reader with no checksum layer below it.
func hugeBlockPrefix() []byte {
	b := binary.AppendUvarint(nil, 1<<30)
	b = binary.AppendUvarint(b, 1<<30)
	return append(b, "not a gigabyte"...)
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBlockReaderBoundsLengthPrefixes: a length prefix past what the
// codec's writer can produce is corruption, reported before any buffer
// is sized from it.
func TestBlockReaderBoundsLengthPrefixes(t *testing.T) {
	for _, c := range []Codec{Snappy{}, BWSC{}} {
		f := map[string]*blockFormat{"snappy": &snappyFormat, "bwsc": &bwscFormat}[c.Name()]
		prefix := func(rawLen, compLen int) []byte {
			b := binary.AppendUvarint(nil, uint64(rawLen))
			return binary.AppendUvarint(b, uint64(compLen))
		}
		for name, stream := range map[string][]byte{
			"1GiB":        hugeBlockPrefix(),
			"raw past":    prefix(f.blockSize+1, 10),
			"coded past":  prefix(10, f.maxEncoded+1),
			"uvarint max": prefix(-1, -1),
		} {
			var err error
			got := allocatedBytes(func() {
				var r io.ReadCloser
				if r, err = c.NewReader(bytes.NewReader(stream)); err == nil {
					_, err = io.Copy(io.Discard, r)
				}
			})
			if !errors.Is(err, errBlockCorrupt) {
				t.Errorf("%s, %s prefix: err = %v, want errBlockCorrupt", c.Name(), name, err)
			}
			if !raceEnabled && got > 1<<20 {
				t.Errorf("%s, %s prefix: reader allocated %d bytes", c.Name(), name, got)
			}
		}
	}
}

// TestBlockFormatBoundsHold: what a codec's writer produces stays
// inside the limits its reader enforces, on the inputs that code worst —
// random bytes, and for Snappy the 1-byte-literal/4-byte-copy pattern.
func TestBlockFormatBoundsHold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, bwscBlockSize)
	rng.Read(random)
	// Runs of four bytes seen 2 KiB+ earlier, separated by one fresh
	// byte: each costs a 3-byte copy and a 2-byte literal.
	sparse := make([]byte, 0, snappyBlockSize)
	sparse = append(sparse, random[:4096]...)
	for i := 0; len(sparse)+5 <= snappyBlockSize; i++ {
		at := (i * 4) % 2048
		sparse = append(sparse, sparse[at:at+4]...)
		sparse = append(sparse, byte(rng.Intn(256)))
	}
	for _, tc := range []struct {
		f    *blockFormat
		name string
		in   []byte
	}{
		{&snappyFormat, "snappy/random", random[:snappyBlockSize]},
		{&snappyFormat, "snappy/sparse", sparse},
		{&bwscFormat, "bwsc/random", random},
	} {
		if got := len(tc.f.compress(nil, tc.in)); got > tc.f.maxEncoded {
			t.Errorf("%s: %d raw bytes coded to %d, past maxEncoded %d", tc.name, len(tc.in), got, tc.f.maxEncoded)
		}
	}
}

// TestBlockStreamsReuseBuffers: a stream's blocks share one raw and one
// compressed buffer in each direction, so what a stream allocates does
// not grow with its length; and Close gives them back, so the next
// stream allocates next to nothing.
func TestBlockStreamsReuseBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	// The second stream takes its buffers from the sync.Pool the first
	// one put them in. A collection between the two would empty the
	// pool, and a move to another P would miss the first P's slot: hold
	// off both.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(2))
	words := make([][]byte, 500)
	for i := range words {
		words[i] = make([]byte, 3+rng.Intn(8))
		rng.Read(words[i])
	}
	text := func(blocks int) []byte {
		var b []byte
		for len(b) < blocks*snappyBlockSize {
			b = append(b, words[rng.Intn(len(words))]...)
		}
		return b[:blocks*snappyBlockSize]
	}
	roundTrip := func(data []byte) (wrote, read uint64) {
		var comp bytes.Buffer
		comp.Grow(len(data) + len(data)/4)
		wrote = allocatedBytes(func() {
			w, _ := Snappy{}.NewWriter(&comp)
			w.Write(data)
			w.Close()
		})
		buf := make([]byte, 32<<10)
		var n int
		read = allocatedBytes(func() {
			r, _ := Snappy{}.NewReader(&comp)
			for {
				m, err := r.Read(buf)
				n += m
				if err != nil {
					break
				}
			}
			r.Close()
		})
		if n != len(data) {
			t.Fatalf("read back %d of %d bytes", n, len(data))
		}
		return wrote, read
	}
	// Per-block buffers would be 100 x 64 KiB in each direction.
	data := text(100)
	wrote, read := roundTrip(data)
	if limit := uint64(4 * snappyBlockSize); wrote > limit || read > limit {
		t.Errorf("a 100-block stream allocated %d bytes writing, %d reading; want under %d", wrote, read, limit)
	}
	wrote, read = roundTrip(data)
	if limit := uint64(4 << 10); wrote > limit || read > limit {
		t.Errorf("the next stream allocated %d bytes writing, %d reading; want under %d", wrote, read, limit)
	}
}

// TestBlockStreamClosePoisons: Close hands a stream's buffers back, and
// in test binaries poisons them, so a stream used after Close errors
// instead of reading or writing bytes another stream now owns.
func TestBlockStreamClosePoisons(t *testing.T) {
	var comp bytes.Buffer
	w, _ := Snappy{}.NewWriter(&comp)
	w.Write([]byte("a block that goes back to the pool"))
	w.Close()
	if _, err := w.Write([]byte("x")); !errors.Is(err, errClosed) {
		t.Errorf("write after Close: err = %v, want errClosed", err)
	}
	r, _ := Snappy{}.NewReader(bytes.NewReader(comp.Bytes()))
	br := r.(*blockReader)
	if _, err := io.ReadFull(r, make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	raw := br.bufs.raw
	r.Close()
	if raw[0] != bytesx.PoisonByte {
		t.Errorf("closed reader's raw buffer starts %q, want poison", raw[:5])
	}
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, errClosed) {
		t.Errorf("read after Close: err = %v, want errClosed", err)
	}
}

// failingReader yields r's bytes, then err in place of io.EOF.
type failingReader struct {
	r   io.Reader
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

// TestBlockReaderTruncation: a source that stops inside a block is
// corruption that says why — io.ErrUnexpectedEOF when it merely ended,
// its own error when it failed — so a layer below (a checksum, an
// injected fault) keeps its meaning for whoever decides on a retry.
func TestBlockReaderTruncation(t *testing.T) {
	errSource := errors.New("source failed")
	for _, c := range []Codec{Snappy{}, BWSC{}} {
		var comp bytes.Buffer
		w, _ := c.NewWriter(&comp)
		w.Write(bytes.Repeat([]byte("cut inside a block "), 100))
		w.Close()
		for _, cut := range []int{1, 3, comp.Len() - 1} {
			for _, want := range []error{io.ErrUnexpectedEOF, errSource} {
				src := io.Reader(bytes.NewReader(comp.Bytes()[:cut]))
				if want == errSource {
					src = &failingReader{r: src, err: errSource}
				}
				r, _ := c.NewReader(src)
				_, err := io.Copy(io.Discard, r)
				r.Close()
				if !errors.Is(err, errBlockCorrupt) || !errors.Is(err, want) {
					t.Errorf("%s cut at %d: err = %v, want errBlockCorrupt and %v", c.Name(), cut, err, want)
				}
			}
		}
	}
}

// TestBlockStreamBuffersFitTheData: a stream's buffers are sized to the
// blocks it holds, not to its codec's block size, so a small BWSC
// stream does not take a 256 KiB raw buffer and a 1 MiB coded one.
func TestBlockStreamBuffersFitTheData(t *testing.T) {
	f := &blockFormat{blockSize: bwscFormat.blockSize, maxEncoded: bwscFormat.maxEncoded,
		compress: bwscFormat.compress, decompress: bwscFormat.decompress}
	data := bytes.Repeat([]byte("a small stream "), 70)
	var comp bytes.Buffer
	w := newBlockWriter(&comp, f)
	w.Write(data)
	w.flushBlock()
	wraw, wcoded := cap(w.bufs.raw), cap(w.bufs.coded)
	w.Close()
	r := newBlockReader(bytes.NewReader(comp.Bytes()), f)
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %d bytes, err %v", len(got), err)
	}
	rraw, rcoded := cap(r.bufs.raw), cap(r.bufs.coded)
	r.Close()
	if limit := 4 << 10; wraw > limit || wcoded > limit || rraw > limit || rcoded > limit {
		t.Errorf("a %d-byte stream took raw/coded buffers of %d/%d bytes writing, %d/%d reading; want each under %d",
			len(data), wraw, wcoded, rraw, rcoded, limit)
	}
}
