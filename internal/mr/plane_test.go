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

	"repro/internal/iokit"
)

// truncatingServer speaks just enough of the wire protocol to betray a
// client: it completes the v2 handshake (granting no capabilities, so
// the body is raw), answers the first request with a header advertising
// the full size, writes only the first keep bytes of the body, and
// slams the connection shut.
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
		r := make([]byte, 3)
		if _, err := io.ReadFull(conn, r); err != nil || r[0] != wireHello || r[1] != wireMagic {
			return
		}
		conn.Write([]byte{wireMagicAck, 0}) // grant nothing: raw body, no mux
		// Request frame: uvarint(len) + name. Names are short; one read
		// suffices for a test client.
		buf := make([]byte, 256)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		out := binary.AppendUvarint(nil, uint64(len(payload))+1)
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

// TestPooledReuseAfterErrorFrameCompressed: a server error frame on a
// compression-negotiated connection leaves it at a frame boundary; the
// subsequent fetch reuses it and decodes a compressed body correctly.
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

// TestWireCompressionRoundTrip: a compression-negotiated fetch delivers
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
	mk := func(compress bool) *Job {
		// No combiner: every emission crosses the shuffle, so segments
		// are large enough to clear the compression floor.
		job := wordCountJob(false)
		job.TCPShuffle = true
		job.WireCompression = compress
		return job
	}
	var words strings.Builder
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&words, "word%05d ", i%1300)
	}
	input := lines(words.String())
	plain, err := Run(mk(false), input)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := Run(mk(true), input)
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
	// Whether a fetch rode a mux batch or went alone is a matter of timing;
	// what its body counts for on the wire must not be.
	if praw, pwire := plain.Stats.Extra[CounterShuffleRawBytes], plain.Stats.Extra[CounterShuffleWireBytes]; praw != pwire {
		t.Errorf("plain run moved %d wire bytes for %d raw; want equal", pwire, praw)
	}
}

// muxTestServer stands up a MemFS-backed segment server plus a pool and
// fetcher, with distinct per-segment contents sized to span several
// window grants.
func muxTestServer(t testing.TB, n, size int, compress bool) (*SegmentServer, *MuxFetcher, map[string][]byte) {
	t.Helper()
	fs := iokit.NewMemFS()
	bodies := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("mux/seg%02d", i)
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
	return srv, NewMuxFetcher(pool), bodies
}

// TestMuxBatchDelivers drives runMux directly — a deterministic batch
// of every segment on one session — and checks each stream returns its
// exact body, including a zero-byte member, with wire accounting.
func TestMuxBatchDelivers(t *testing.T) {
	for _, compress := range []bool{false, true} {
		srv, m, bodies := muxTestServer(t, 6, int(muxWindow)*2+123, compress)
		w, _ := srv.fs.(*iokit.MemFS).Create("mux/empty")
		w.Close()
		bodies["mux/empty"] = nil

		var names []string
		for name := range bodies {
			names = append(names, name)
		}
		reqs := make([]*muxReq, len(names))
		for i, name := range names {
			reqs[i] = &muxReq{ctx: context.Background(), name: name, res: make(chan muxRes, 1)}
		}
		go m.runMux(srv.Addr(), reqs)
		for i, r := range reqs {
			res := <-r.res
			if res.fallback || res.err != nil {
				t.Fatalf("compress=%v stream %s: fallback=%v err=%v", compress, names[i], res.fallback, res.err)
			}
			got, err := io.ReadAll(res.rc)
			if err != nil {
				t.Fatalf("compress=%v stream %s: %v", compress, names[i], err)
			}
			if !bytes.Equal(got, bodies[names[i]]) {
				t.Fatalf("compress=%v stream %s: body mismatch (%d bytes)", compress, names[i], len(got))
			}
			wire, ok := WireBytes(res.rc)
			if !ok {
				t.Fatalf("compress=%v: mux stream should report wire bytes", compress)
			}
			if compress && res.size >= wireCompressMin && wire >= res.size {
				t.Errorf("compress=%v stream %s: wire %d, want < raw %d", compress, names[i], wire, res.size)
			}
			res.rc.Close()
		}
		if m.Sessions() != 1 || m.Muxed() != int64(len(names)) {
			t.Errorf("compress=%v: sessions=%d muxed=%d, want 1/%d", compress, m.Sessions(), m.Muxed(), len(names))
		}
	}
}

// TestMuxBatchStreamError: a missing segment inside a batch fails only
// its own stream — the siblings deliver, and the session still winds
// down cleanly enough to pool the connection (next fetch, no new dial).
func TestMuxBatchStreamError(t *testing.T) {
	srv, m, bodies := muxTestServer(t, 3, 8<<10, false)
	names := []string{"mux/seg00", "mux/nope", "mux/seg02"}
	reqs := make([]*muxReq, len(names))
	for i, name := range names {
		reqs[i] = &muxReq{ctx: context.Background(), name: name, res: make(chan muxRes, 1)}
	}
	// The streams end before the session does: it still has DONE to read
	// and the ack to write before it parks the connection.
	sessionDone := make(chan struct{})
	go func() {
		m.runMux(srv.Addr(), reqs)
		close(sessionDone)
	}()
	for i, r := range reqs {
		res := <-r.res
		if names[i] == "mux/nope" {
			if res.err == nil || res.fallback {
				t.Fatalf("missing segment: err=%v fallback=%v", res.err, res.fallback)
			}
			continue
		}
		if res.err != nil || res.fallback {
			t.Fatalf("stream %s: err=%v fallback=%v", names[i], res.err, res.fallback)
		}
		got, _ := io.ReadAll(res.rc)
		res.rc.Close()
		if !bytes.Equal(got, bodies[names[i]]) {
			t.Fatalf("stream %s: body mismatch", names[i])
		}
	}
	<-sessionDone
	dials := m.pool.Dials()
	rc, _, err := m.pool.Fetch(context.Background(), srv.Addr(), "mux/seg00")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rc)
	rc.Close()
	if d := m.pool.Dials(); d != dials {
		t.Errorf("post-batch fetch dialed (total %d, was %d); session should have pooled its conn", d, dials)
	}
}

// TestMuxSessionOutlivesEarlyRequester: a batch's connection belongs to
// all of its streams. The scheduler cancels a fetch attempt's context as
// soon as the attempt completes, which for the batch's first request
// used to close the connection under its siblings — their bodies then
// failed with that request's context.Canceled, which no retry policy
// treats as transient.
func TestMuxSessionOutlivesEarlyRequester(t *testing.T) {
	for _, first := range []int{0, 1} { // the early finisher: the batch's first request, or another
		srv, m, bodies := muxTestServer(t, 2, int(muxWindow)*2+123, false)
		names := []string{"mux/seg00", "mux/seg01"}
		reqs := make([]*muxReq, len(names))
		cancels := make([]context.CancelFunc, len(names))
		for i, name := range names {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reqs[i], cancels[i] = &muxReq{ctx: ctx, name: name, res: make(chan muxRes, 1)}, cancel
		}
		go m.runMux(srv.Addr(), reqs)
		for _, i := range []int{first, 1 - first} {
			res := <-reqs[i].res
			if res.err != nil || res.fallback {
				t.Fatalf("stream %s: err=%v fallback=%v", names[i], res.err, res.fallback)
			}
			got, err := io.ReadAll(res.rc)
			res.rc.Close()
			cancels[i]() // the attempt is over
			if err != nil || !bytes.Equal(got, bodies[names[i]]) {
				t.Fatalf("stream %s after its sibling finished: %d of %d bytes, err %v", names[i], len(got), len(bodies[names[i]]), err)
			}
		}
	}
}

// TestMuxFetcherConcurrent: the public Fetch path under a concurrent
// burst — every body arrives intact, and the group-commit dispatcher
// coalesces at least one burst into a multiplexed session.
func TestMuxFetcherConcurrent(t *testing.T) {
	srv, m, bodies := muxTestServer(t, 8, 64<<10, false)
	var names []string
	for name := range bodies {
		names = append(names, name)
	}
	for round := 0; round < 20 && m.Sessions() == 0; round++ {
		errs := make(chan error, 2*len(names))
		for i := 0; i < 2*len(names); i++ {
			name := names[i%len(names)]
			go func() {
				rc, size, err := m.Fetch(context.Background(), srv.Addr(), name)
				if err != nil {
					errs <- err
					return
				}
				got, err := io.ReadAll(rc)
				rc.Close()
				if err == nil && (int64(len(got)) != size || !bytes.Equal(got, bodies[name])) {
					err = fmt.Errorf("body mismatch for %s", name)
				}
				errs <- err
			}()
		}
		for i := 0; i < 2*len(names); i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.Sessions() == 0 {
		t.Error("20 concurrent bursts never coalesced into a mux session")
	}
	t.Logf("sessions=%d muxed=%d dials=%d", m.Sessions(), m.Muxed(), m.pool.Dials())
}

// TestMuxFetcherSingleUsesSequentialPath: a lone fetch gains nothing
// from mux framing and must ride the plain pooled exchange.
func TestMuxFetcherSingleUsesSequentialPath(t *testing.T) {
	srv, m, bodies := muxTestServer(t, 1, 4<<10, false)
	rc, _, err := m.Fetch(context.Background(), srv.Addr(), "mux/seg00")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if !bytes.Equal(got, bodies["mux/seg00"]) {
		t.Fatal("body mismatch")
	}
	if m.Muxed() != 0 {
		t.Errorf("single fetch muxed %d streams, want 0", m.Muxed())
	}
}

// BenchmarkShuffleDataPlane measures the shuffle body path end to end
// over loopback TCP: the buffered copy plane (MemFS), the zero-copy
// sendfile plane (OSFS, where the server hands the socket a raw
// *os.File), and the Snappy wire-compression plane. Each variant
// reports bytes-on-wire per op next to throughput, so the
// raw-vs-sendfile-vs-compressed table in EXPERIMENTS.md reads straight
// off this benchmark (BENCH_7.json).
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

	// The multiplexed plane: eight concurrent streams batched onto
	// shared sessions instead of eight sequential exchanges.
	b.Run("mux-8way-memfs", func(b *testing.B) {
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
		m := NewMuxFetcher(pool)
		b.SetBytes(segSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			errs := make(chan error, nSeg)
			for _, name := range names {
				name := name
				go func() {
					rc, _, err := m.Fetch(context.Background(), srv.Addr(), name)
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
		b.ReportMetric(float64(m.Muxed())/float64(m.Sessions()+1), "streams/session")
	})
}
