package mr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/iokit"
)

// truncatingServer speaks just enough of the wire protocol to betray a
// client: it answers the first request with a raw-body header
// advertising the full size, writes only the first keep bytes of the
// body, and slams the connection shut.
func truncatingServer(t *testing.T, payload []byte, keep int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Request frame: accept byte + uvarint(len) + name. Names are
		// short; one read suffices for a test client.
		buf := make([]byte, 256)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		out := binary.AppendUvarint(nil, uint64(len(payload))+1)
		out = append(out, encodingRaw)
		out = append(out, payload[:keep]...)
		conn.Write(out)
	}()
	return ln.Addr().String()
}

// TestFetchTruncationIsUnexpectedEOF is the regression test for the
// truncation-masking bug: a server that dies after delivering a valid
// header and a partial body must surface io.ErrUnexpectedEOF from the
// reader — a clean io.EOF would let a short body masquerade as a
// complete one.
func TestFetchTruncationIsUnexpectedEOF(t *testing.T) {
	payload := []byte(strings.Repeat("truncated body ", 200))
	for _, keep := range []int{0, 1, 100, len(payload) - 1} {
		addr := truncatingServer(t, payload, keep)
		pool := NewConnPool()
		rc, size, err := pool.Fetch(context.Background(), addr, "seg")
		if err != nil {
			t.Fatalf("keep=%d: header should arrive intact: %v", keep, err)
		}
		if size != int64(len(payload)) {
			t.Fatalf("keep=%d: advertised size = %d, want %d", keep, size, len(payload))
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		pool.Close()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("keep=%d: read error = %v, want io.ErrUnexpectedEOF", keep, err)
		}
		if len(got) > keep {
			t.Errorf("keep=%d: read %d bytes past the truncation point", keep, len(got))
		}
	}
}

// TestFetchZeroByteSegment: a zero-byte segment is a legal body — the
// header advertises size 0, the reader yields immediate EOF, and the
// connection lands back in the pool for reuse, compressed or not.
func TestFetchZeroByteSegment(t *testing.T) {
	fs := iokit.NewMemFS()
	w, _ := fs.Create("empty")
	w.Close()
	w, _ = fs.Create("full")
	w.Write([]byte(strings.Repeat("follow-up ", 200)))
	w.Close()
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, compress := range []bool{false, true} {
		pool := NewConnPool()
		pool.WireCompression = compress
		rc, size, err := pool.Fetch(context.Background(), srv.Addr(), "empty")
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if size != 0 {
			t.Fatalf("compress=%v: size = %d, want 0", compress, size)
		}
		got, err := io.ReadAll(rc)
		if err != nil || len(got) != 0 {
			t.Fatalf("compress=%v: zero-byte body read %d bytes, err %v", compress, len(got), err)
		}
		rc.Close()
		// The connection must be at a clean frame boundary: the next
		// fetch rides it without a new dial.
		rc, _, err = pool.Fetch(context.Background(), srv.Addr(), "full")
		if err != nil {
			t.Fatalf("compress=%v: fetch after zero-byte: %v", compress, err)
		}
		io.Copy(io.Discard, rc)
		rc.Close()
		if d := pool.Dials(); d != 1 {
			t.Errorf("compress=%v: dials = %d, want 1", compress, d)
		}
		pool.Close()
	}
}

// TestPooledReuseAfterErrorFrameCompressed: a server error frame
// answering a compression-requesting fetch leaves the connection at a
// frame boundary; the subsequent fetch reuses it and decodes a
// compressed body correctly.
func TestPooledReuseAfterErrorFrameCompressed(t *testing.T) {
	fs := iokit.NewMemFS()
	payload := strings.Repeat("compressible error-frame interleaving ", 300)
	w, _ := fs.Create("seg")
	w.Write([]byte(payload))
	w.Close()
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewConnPool()
	pool.WireCompression = true
	defer pool.Close()

	for i := 0; i < 5; i++ {
		if _, _, err := pool.Fetch(context.Background(), srv.Addr(), "missing"); err == nil {
			t.Fatal("missing segment should error")
		}
		rc, size, err := pool.Fetch(context.Background(), srv.Addr(), "seg")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || string(got) != payload || size != int64(len(payload)) {
			t.Fatalf("round %d: body mismatch after error frame (err %v)", i, err)
		}
	}
	if d := pool.Dials(); d != 1 {
		t.Errorf("interleaved errors/fetches dialed %d times, want 1", d)
	}
}

// TestConnPoolCloseRacesPut: Close racing a reader's put-back must
// neither panic nor deadlock; run under -race this also proves the
// pool's bookkeeping is data-race-free.
func TestConnPoolCloseRacesPut(t *testing.T) {
	fs := iokit.NewMemFS()
	w, _ := fs.Create("seg")
	w.Write([]byte(strings.Repeat("raced ", 500)))
	w.Close()
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for i := 0; i < 50; i++ {
		pool := NewConnPool()
		rc, _, err := pool.Fetch(context.Background(), srv.Addr(), "seg")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, rc)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); rc.Close() }() // puts the conn back
		go func() { defer wg.Done(); pool.Close() }()
		wg.Wait()
		pool.Close()
	}
}

// TestWireCompressionRoundTrip: a compression-requesting fetch delivers
// byte-identical data while moving fewer bytes on the wire, across
// bodies spanning one unit, many units, and the don't-compress floor.
func TestWireCompressionRoundTrip(t *testing.T) {
	fs := iokit.NewMemFS()
	sizes := map[string]int{
		"tiny":  wireCompressMin - 1, // below the floor: sent raw
		"one":   4 << 10,             // single compressed unit
		"multi": 3*wireChunk + 17,    // several units, ragged tail
	}
	bodies := map[string][]byte{}
	for name, n := range sizes {
		body := bytes.Repeat([]byte("wire compression round trip "), n/28+1)[:n]
		bodies[name] = body
		w, _ := fs.Create(name)
		w.Write(body)
		w.Close()
	}
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewConnPool()
	pool.WireCompression = true
	defer pool.Close()

	for name, body := range bodies {
		rc, size, err := pool.Fetch(context.Background(), srv.Addr(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := io.ReadAll(rc)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: body mismatch (%d of %d bytes, err %v)", name, len(got), len(body), err)
		}
		wire, ok := WireBytes(rc)
		rc.Close()
		if !ok {
			t.Fatalf("%s: reader should report wire bytes", name)
		}
		if name == "tiny" {
			if wire != size {
				t.Errorf("tiny: wire = %d, want raw %d (below compression floor)", wire, size)
			}
		} else if wire >= size {
			t.Errorf("%s: wire = %d, want < raw %d", name, wire, size)
		}
	}
}

// TestJobOverTCPShuffleCompressed: wire compression is invisible to the
// job — output matches an uncompressed run key for key — while the wire
// byte counters record the savings.
func TestJobOverTCPShuffleCompressed(t *testing.T) {
	var words strings.Builder
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&words, "word%05d ", i%1300)
	}
	input := lines(words.String())
	// No combiner: every emission crosses the shuffle, so segments are
	// large enough to clear the compression floor.
	plain, err := runOverWire(wordCountJob(false), input, false)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := runOverWire(wordCountJob(false), input, true)
	if err != nil {
		t.Fatal(err)
	}
	got, want := outputMap(t, compressed), outputMap(t, plain)
	if len(got) != len(want) {
		t.Fatalf("key count: compressed %d, plain %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q: compressed %q, plain %q", k, got[k], v)
		}
	}
	raw := compressed.Stats.Extra[CounterShuffleRawBytes]
	wire := compressed.Stats.Extra[CounterShuffleWireBytes]
	if raw == 0 || wire == 0 || wire >= raw {
		t.Errorf("compressed run counters: raw %d, wire %d; want 0 < wire < raw", raw, wire)
	}
	// Without compression a body occupies exactly its raw bytes on the wire.
	if praw, pwire := plain.Stats.Extra[CounterShuffleRawBytes], plain.Stats.Extra[CounterShuffleWireBytes]; praw != pwire {
		t.Errorf("plain run moved %d wire bytes for %d raw; want equal", pwire, praw)
	}
}

// burstTestServer stands up a MemFS-backed segment server plus a pool,
// with distinct per-segment contents, for concurrent-fetch tests.
func burstTestServer(t testing.TB, n, size int, compress bool) (*SegmentServer, *ConnPool, map[string][]byte) {
	t.Helper()
	fs := iokit.NewMemFS()
	bodies := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("burst/seg%02d", i)
		pat := fmt.Sprintf("segment %02d payload ", i)
		body := bytes.Repeat([]byte(pat), size/len(pat)+1)[:size]
		bodies[name] = body
		w, _ := fs.Create(name)
		w.Write(body)
		w.Close()
	}
	srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pool := NewConnPool()
	pool.WireCompression = compress
	t.Cleanup(func() { pool.Close() })
	return srv, pool, bodies
}

// fetchAll reads one segment through fetch and checks it against want
// (a nil want expects a zero-byte body), returning its wire bytes.
func fetchAll(ctx context.Context, fetch func(context.Context, string, string) (io.ReadCloser, int64, error), addr, name string, want []byte) (int64, error) {
	rc, size, err := fetch(ctx, addr, name)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if size != int64(len(want)) || !bytes.Equal(got, want) {
		return 0, fmt.Errorf("%s: body mismatch (%d bytes, size %d, want %d)", name, len(got), size, len(want))
	}
	wire, ok := WireBytes(rc)
	if !ok {
		return 0, fmt.Errorf("%s: reader should report wire bytes", name)
	}
	return wire, nil
}

// TestMuxBatchDelivers: a concurrent burst of fetches to one server —
// the load shape a multiplexed batch once served — returns every exact
// body, including a zero-byte one, with per-body wire accounting.
func TestMuxBatchDelivers(t *testing.T) {
	for _, compress := range []bool{false, true} {
		srv, pool, bodies := burstTestServer(t, 6, 2*wireChunk+123, compress)
		w, _ := srv.fs.(*iokit.MemFS).Create("burst/empty")
		w.Close()
		bodies["burst/empty"] = nil

		var wg sync.WaitGroup
		for name, body := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wire, err := fetchAll(context.Background(), pool.Fetch, srv.Addr(), name, body)
				switch {
				case err != nil:
					t.Errorf("compress=%v: %v", compress, err)
				case compress && len(body) >= wireCompressMin && wire >= int64(len(body)):
					t.Errorf("compress=%v %s: wire %d, want < raw %d", compress, name, wire, len(body))
				case (!compress || len(body) < wireCompressMin) && wire != int64(len(body)):
					t.Errorf("compress=%v %s: wire %d, want raw %d", compress, name, wire, len(body))
				}
			}()
		}
		wg.Wait()
	}
}

// TestMuxBatchStreamError: in a concurrent burst, a missing segment fails
// only its own fetch — the siblings deliver — and its connection goes
// back to the pool at a frame boundary, so the next fetch dials nothing.
func TestMuxBatchStreamError(t *testing.T) {
	srv, pool, bodies := burstTestServer(t, 3, 8<<10, false)
	names := []string{"burst/seg00", "burst/nope", "burst/seg02"}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = fetchAll(context.Background(), pool.Fetch, srv.Addr(), name, bodies[name])
		}()
	}
	wg.Wait()
	for i, name := range names {
		if missing := name == "burst/nope"; missing != (errs[i] != nil) {
			t.Fatalf("%s: err = %v", name, errs[i])
		}
	}
	// Every connection the burst dialed, the error one included, is idle.
	dials := pool.Dials()
	pool.mu.Lock()
	idle := int64(len(pool.idle[srv.Addr()]))
	pool.mu.Unlock()
	if idle != dials {
		t.Errorf("%d dials but %d pooled connections; a fetch failed to return its conn", dials, idle)
	}
	if _, err := fetchAll(context.Background(), pool.Fetch, srv.Addr(), names[0], bodies[names[0]]); err != nil {
		t.Fatal(err)
	}
	if d := pool.Dials(); d != dials {
		t.Errorf("post-burst fetches dialed (total %d, was %d)", d, dials)
	}
}

// TestMuxSessionOutlivesEarlyRequester: the scheduler cancels a fetch
// attempt's context as soon as the attempt completes. Cancelling one
// fetch of a concurrent pair — mid-body here — must fail only that
// fetch; its sibling's body arrives intact.
func TestMuxSessionOutlivesEarlyRequester(t *testing.T) {
	for _, first := range []int{0, 1} { // the fetch whose context is cancelled
		srv, pool, bodies := burstTestServer(t, 2, 8*wireChunk+123, false)
		names := []string{"burst/seg00", "burst/seg01"}
		rcs := make([]io.ReadCloser, len(names))
		cancels := make([]context.CancelFunc, len(names))
		var wg sync.WaitGroup
		for i, name := range names {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cancels[i] = cancel
			wg.Add(1)
			go func() {
				defer wg.Done()
				rc, _, err := pool.Fetch(ctx, srv.Addr(), name)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				rcs[i] = rc
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if _, err := io.ReadFull(rcs[first], make([]byte, 4096)); err != nil {
			t.Fatalf("%s: first read: %v", names[first], err)
		}
		cancels[first]()
		if _, err := io.ReadAll(rcs[first]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s after cancel: err = %v, want context.Canceled", names[first], err)
		}
		rcs[first].Close()
		other := names[1-first]
		got, err := io.ReadAll(rcs[1-first])
		rcs[1-first].Close()
		if err != nil || !bytes.Equal(got, bodies[other]) {
			t.Fatalf("%s after its sibling was cancelled: %d of %d bytes, err %v", other, len(got), len(bodies[other]), err)
		}
	}
}

// TestMuxFetcherConcurrent: the deprecated MuxFetcher alias under a
// concurrent burst delivers every body intact and reports no sessions.
func TestMuxFetcherConcurrent(t *testing.T) {
	srv, pool, bodies := burstTestServer(t, 8, 64<<10, false)
	m := NewMuxFetcher(pool)
	errs := make(chan error, 2*len(bodies))
	for i := 0; i < 2; i++ {
		for name, body := range bodies {
			go func() {
				_, err := fetchAll(context.Background(), m.Fetch, srv.Addr(), name, body)
				errs <- err
			}()
		}
	}
	for i := 0; i < 2*len(bodies); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if m.Sessions() != 0 || m.Muxed() != 0 {
		t.Errorf("sessions=%d muxed=%d, want 0/0", m.Sessions(), m.Muxed())
	}
}

// TestMuxFetcherSingleUsesSequentialPath: a lone fetch through the alias
// is one plain pooled exchange.
func TestMuxFetcherSingleUsesSequentialPath(t *testing.T) {
	srv, pool, bodies := burstTestServer(t, 1, 4<<10, false)
	m := NewMuxFetcher(pool)
	if _, err := fetchAll(context.Background(), m.Fetch, srv.Addr(), "burst/seg00", bodies["burst/seg00"]); err != nil {
		t.Fatal(err)
	}
	if m.Sessions() != 0 || m.Muxed() != 0 || pool.Dials() != 1 {
		t.Errorf("sessions=%d muxed=%d dials=%d, want 0/0/1", m.Sessions(), m.Muxed(), pool.Dials())
	}
}

// TestRequestUnknownAcceptByteDropsConn: a request whose accept byte
// names no encoding is not this protocol; the server writes nothing and
// closes the connection.
func TestRequestUnknownAcceptByteDropsConn(t *testing.T) {
	srv, _, _ := burstTestServer(t, 1, 4<<10, false)
	for _, accept := range []byte{encodingSnappy + 1, 0xA5, 0xFF} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(appendRequest(nil, accept, "burst/seg00")); err != nil {
			t.Fatal(err)
		}
		n, err := io.ReadAll(conn)
		conn.Close()
		if err != nil || len(n) != 0 {
			t.Errorf("accept 0x%02x: server wrote %d bytes, err %v; want nothing, then close", accept, len(n), err)
		}
	}
}

// BenchmarkShuffleDataPlane measures the shuffle body path end to end
// over loopback TCP: the buffered copy plane (MemFS), the zero-copy
// sendfile plane (OSFS, where the server hands the socket a raw
// *os.File), and the Snappy wire-compression plane. Each variant
// reports bytes-on-wire per op next to throughput, so the
// raw-vs-sendfile-vs-compressed table in EXPERIMENTS.md reads straight
// off this benchmark (BENCH_transport.json).
func BenchmarkShuffleDataPlane(b *testing.B) {
	const segSize = 8 << 20
	row := []byte("shuffle data plane benchmark payload row 0123456789 ")
	payload := bytes.Repeat(row, segSize/len(row)+1)[:segSize]

	plant := func(b *testing.B, fs iokit.FS, name string, body []byte) {
		b.Helper()
		w, err := fs.Create(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(body); err != nil {
			b.Fatal(err)
		}
		w.Close()
	}
	bench := func(b *testing.B, fs iokit.FS, compress bool) {
		plant(b, fs, "seg", payload)
		srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		pool := NewConnPool()
		pool.WireCompression = compress
		defer pool.Close()
		b.SetBytes(segSize)
		b.ResetTimer()
		var wire int64
		for i := 0; i < b.N; i++ {
			rc, _, err := pool.Fetch(context.Background(), srv.Addr(), "seg")
			if err != nil {
				b.Fatal(err)
			}
			if n, err := io.Copy(io.Discard, rc); err != nil || n != segSize {
				b.Fatalf("drained %d bytes, err %v", n, err)
			}
			if w, ok := WireBytes(rc); ok {
				wire += w
			}
			rc.Close()
		}
		b.ReportMetric(float64(wire)/float64(b.N), "wireB/op")
	}

	b.Run("raw-memfs", func(b *testing.B) { bench(b, iokit.NewMemFS(), false) })
	b.Run("sendfile-osfs", func(b *testing.B) { bench(b, iokit.NewOSFS(b.TempDir()), false) })
	b.Run("compressed-memfs", func(b *testing.B) { bench(b, iokit.NewMemFS(), true) })
	b.Run("compressed-osfs", func(b *testing.B) { bench(b, iokit.NewOSFS(b.TempDir()), true) })

	// The concurrent plane: the same bytes as eight segments fetched by
	// eight goroutines at once, each on its own pooled connection.
	b.Run("concurrent-8way-memfs", func(b *testing.B) {
		const nSeg = 8
		fs := iokit.NewMemFS()
		var names []string
		for i := 0; i < nSeg; i++ {
			name := fmt.Sprintf("seg%d", i)
			plant(b, fs, name, payload[:segSize/nSeg])
			names = append(names, name)
		}
		srv, err := NewSegmentServer(fs, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		pool := NewConnPool()
		defer pool.Close()
		b.SetBytes(segSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			errs := make(chan error, nSeg)
			for _, name := range names {
				go func() {
					rc, _, err := pool.Fetch(context.Background(), srv.Addr(), name)
					if err == nil {
						_, err = io.Copy(io.Discard, rc)
						rc.Close()
					}
					errs <- err
				}()
			}
			for range names {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(pool.Dials())/float64(b.N), "dials/op")
	})
}
