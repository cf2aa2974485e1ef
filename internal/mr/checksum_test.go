package mr

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/iokit"
)

// checksumTestJob returns a normalized job with default (enabled)
// checksum settings, for exercising the framing layers directly.
func checksumTestJob(t *testing.T) *Job {
	t.Helper()
	j, err := wordCountJob(false).normalized()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// frameStream checksum-frames payload, returning the on-disk bytes.
func frameStream(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := newChecksumWriter(&buf)
	if _, err := cw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChecksumRoundTrip frames payloads of several sizes (empty,
// sub-block, exactly one block, multi-block with remainder) and checks
// the reader and the pass-through verifier both recover them exactly.
func TestChecksumRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 100, checksumBlockSize, checksumBlockSize + 1, 3*checksumBlockSize + 17}
	for _, n := range sizes {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*31 + 7)
		}
		framed := frameStream(t, payload)

		cr := newCRCReader(bytes.NewReader(framed), false)
		got, err := io.ReadAll(cr)
		cr.release()
		if err != nil {
			t.Fatalf("size %d: read framed stream: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: round trip mismatch: %d bytes out, want %d", n, len(got), len(payload))
		}

		raw, err := io.ReadAll(NewIntegrityVerifier(bytes.NewReader(framed)))
		if err != nil {
			t.Fatalf("size %d: verifier: %v", n, err)
		}
		if !bytes.Equal(raw, framed) {
			t.Fatalf("size %d: verifier is not pass-through: %d bytes out, want %d", n, len(raw), len(framed))
		}
	}
}

// TestChecksumDetectsCorruption flips each byte of a framed stream in
// turn: both the stripping reader and the pass-through verifier must
// fail with ErrIntegrity (never succeed, never panic) on every offset.
func TestChecksumDetectsCorruption(t *testing.T) {
	payload := []byte(strings.Repeat("integrity matters ", 40))
	framed := frameStream(t, payload)
	for off := 0; off < len(framed); off++ {
		corrupt := append([]byte(nil), framed...)
		corrupt[off] ^= 0x40

		cr := newCRCReader(bytes.NewReader(corrupt), false)
		got, err := io.ReadAll(cr)
		cr.release()
		if err == nil {
			// Flipping a bit may never yield a silently valid stream of
			// the same content.
			if bytes.Equal(got, payload) {
				t.Fatalf("offset %d: corruption read back as the original payload", off)
			}
			t.Fatalf("offset %d: corrupt stream read without error", off)
		}
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("offset %d: error is not ErrIntegrity: %v", off, err)
		}

		if _, err := io.ReadAll(NewIntegrityVerifier(bytes.NewReader(corrupt))); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("offset %d: verifier error is not ErrIntegrity: %v", off, err)
		}
	}
}

// TestChecksumDetectsTruncation cuts a framed stream at every length:
// any prefix shorter than the full stream must fail with ErrIntegrity.
func TestChecksumDetectsTruncation(t *testing.T) {
	framed := frameStream(t, []byte(strings.Repeat("cut here ", 30)))
	for n := 0; n < len(framed); n++ {
		cr := newCRCReader(bytes.NewReader(framed[:n]), false)
		_, err := io.ReadAll(cr)
		cr.release()
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("truncated at %d: error is not ErrIntegrity: %v", n, err)
		}
		if _, err := io.ReadAll(NewIntegrityVerifier(bytes.NewReader(framed[:n]))); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("truncated at %d: verifier error is not ErrIntegrity: %v", n, err)
		}
	}
	// Trailing garbage after the terminator is corruption too.
	trailing := append(append([]byte(nil), framed...), 'x')
	cr := newCRCReader(bytes.NewReader(trailing), false)
	if _, err := io.ReadAll(cr); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("trailing data: error is not ErrIntegrity: %v", err)
	}
	cr.release()
}

// TestChecksumPassesThroughIOErrors pins the error taxonomy: an
// underlying I/O fault (an injected read failure) must surface as
// itself, not be reclassified as corruption.
func TestChecksumPassesThroughIOErrors(t *testing.T) {
	mem := iokit.NewMemFS()
	f, err := mem.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	cw := newChecksumWriter(f)
	if _, err := cw.Write([]byte(strings.Repeat("data ", 100))); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	flaky := &iokit.FlakyFS{Inner: mem, FailReadAt: 1}
	r, err := flaky.Open("seg")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cr := newCRCReader(r, false)
	defer cr.release()
	_, err = io.ReadAll(cr)
	if !errors.Is(err, iokit.ErrInjected) {
		t.Fatalf("injected fault not passed through: %v", err)
	}
	if errors.Is(err, ErrIntegrity) {
		t.Fatalf("injected fault misclassified as integrity violation: %v", err)
	}
}

// overflowingFrameHeader is a ten-byte uvarint whose last byte carries
// bits past the 64th: decoded with a wrapping shift it reads as 0, the
// stream terminator.
var overflowingFrameHeader = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}

// TestFrameHeaderOverflowRejected: an overflowing length header is
// corruption in both reader modes — never a terminator, so never a
// clean empty stream.
func TestFrameHeaderOverflowRejected(t *testing.T) {
	for _, raw := range []bool{false, true} {
		r := newCRCReader(bytes.NewReader(overflowingFrameHeader), raw)
		got, err := io.ReadAll(r)
		if !errors.Is(err, ErrIntegrity) {
			t.Errorf("raw=%v: read %d bytes, err = %v; want ErrIntegrity", raw, len(got), err)
		}
	}
	if _, err := io.ReadAll(NewIntegrityVerifier(bytes.NewReader(overflowingFrameHeader))); !errors.Is(err, ErrIntegrity) {
		t.Errorf("NewIntegrityVerifier: err = %v, want ErrIntegrity", err)
	}
}

// TestFetchCorruptionRetries serves two segments through a listener
// that flips one bit in the first large payload write: the first fetch
// attempt must detect the corruption by checksum, count it and leave no
// file behind, and the retried attempt must land byte-identical copies.
func TestFetchCorruptionRetries(t *testing.T) {
	job := checksumTestJob(t)
	remote, local := iokit.NewMemFS(), iokit.NewMemFS()
	sources := fetchTestSources(t, job, remote)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewSegmentServerOn(remote, corruptOnceListener(ln), nil)
	defer srv.Close()
	pool := NewConnPool()
	defer pool.Close()
	fetch := func(ctx context.Context, src SegmentInfo) (io.ReadCloser, int64, error) {
		return pool.Fetch(ctx, srv.Addr(), src.File)
	}

	counters := &Counters{}
	_, err = ExecFetchTask(context.Background(), job, local, counters, 1, 3, 0, sources, fetch)
	if !errors.Is(err, ErrIntegrity) || !isTransientErr(err) {
		t.Fatalf("attempt 0: err = %v, want a retryable ErrIntegrity", err)
	}
	if got := counters.Extra(CounterFetchIntegrity); got != 1 {
		t.Errorf("%s = %d, want 1", CounterFetchIntegrity, got)
	}
	if files, _ := local.List(); len(files) != 0 {
		t.Errorf("failed attempt left files behind: %v", files)
	}

	got, err := ExecFetchTask(context.Background(), job, local, counters, 1, 3, 1, sources, fetch)
	if err != nil {
		t.Fatalf("attempt 1: %v", err)
	}
	if len(got.Segs) != len(sources) {
		t.Fatalf("attempt 1 fetched %d segments, want %d", len(got.Segs), len(sources))
	}
	for i, s := range got.Segs {
		want, _ := readAllFile(remote, sources[i].File)
		copied, err := readAllFile(local, s.File)
		if err != nil || !bytes.Equal(copied, want) {
			t.Errorf("segment %d: the retried copy differs from its source (%v)", i, err)
		}
	}
}

// corruptOnceListener wraps a listener so that exactly one large
// payload write (across all connections) has one bit flipped. Small
// writes — the wire protocol's size headers — are left intact, so the
// corruption hits segment payload, exactly what the checksum layer (and
// nothing else) can catch.
func corruptOnceListener(ln net.Listener) net.Listener {
	return &corruptListener{Listener: ln, state: new(atomic.Bool)}
}

type corruptListener struct {
	net.Listener
	state *atomic.Bool
}

func (l *corruptListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &corruptConn{Conn: conn, state: l.state}, nil
}

type corruptConn struct {
	net.Conn
	state *atomic.Bool
}

func (c *corruptConn) Write(p []byte) (int, error) {
	if len(p) >= 64 && c.state.CompareAndSwap(false, true) {
		tampered := append([]byte(nil), p...)
		tampered[len(tampered)/2] ^= 0x04
		n, err := c.Conn.Write(tampered)
		return n, err
	}
	return c.Conn.Write(p)
}
