package mr

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/codec"
	"repro/internal/iokit"
)

// Wire protocol: one request frame and one response frame per fetch,
// on a persistent connection that many fetches reuse in turn.
//
//	request  := accept | uvarint(len) | name
//	response := uvarint(size+1) | enc | body
//	          | uvarint(0) | uvarint(len) | msg      (server-reported error)
//
// accept is the body encoding the client takes (encodingRaw or
// encodingSnappy); any other byte makes the server drop the connection.
// enc is the encoding the server chose: a raw body is size bytes
// verbatim, a Snappy body is a codec.Snappy stream — the block container
// map-output segments use — whose blocks decode to exactly size raw
// bytes. A Snappy-accepting request still gets a raw body below
// wireCompressMin.
const (
	encodingRaw    = 0x00
	encodingSnappy = 0x01

	// wireCompressMin is the smallest body worth compressing; below it
	// the encoding byte says raw and the body is verbatim.
	wireCompressMin = 512
)

// Wire protocol frame limits. Request frames carry file names; error
// frames carry error strings. Anything larger is rejected before
// allocation so a corrupt or hostile peer cannot force large buffers.
const (
	maxNameFrame = 4 << 10
	maxErrFrame  = 64 << 10
)

// SegmentServer serves segment files from an FS over TCP, speaking the
// frame pair above. After a response the connection returns to a clean
// frame boundary and the client may issue the next request on it, which
// is what makes connection pooling possible. Cluster workers bind it on
// a routable address and peer workers fetch from it directly.
type SegmentServer struct {
	fs    iokit.FS
	meter *iokit.Meter // optional: meters serve-side disk reads
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewSegmentServer starts a listener on addr (e.g. "127.0.0.1:0")
// serving fs. meter, when non-nil, receives the serve-side disk reads —
// useful when fs itself is unmetered (the cluster worker's base FS).
func NewSegmentServer(fs iokit.FS, addr string, meter *iokit.Meter) (*SegmentServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewSegmentServerOn(fs, ln, meter), nil
}

// NewSegmentServerOn serves fs on an already-bound listener — the hook
// that lets cluster workers and the chaos harness interpose on the data
// plane (e.g. a fault-injecting listener wrapper) before serving starts.
func NewSegmentServerOn(fs iokit.FS, ln net.Listener, meter *iokit.Meter) *SegmentServer {
	s := &SegmentServer{fs: fs, meter: meter, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.serve()
	return s
}

// Addr reports the listener address, in a form peers can dial.
func (s *SegmentServer) Addr() string { return s.ln.Addr().String() }

// count meters one served body's raw bytes as serve-side disk reads.
// Post-counting (instead of a metering reader wrapped around the file)
// is what keeps the raw *os.File visible to io.Copy for the sendfile
// fast path.
func (s *SegmentServer) count(raw int64) {
	if raw > 0 && s.meter != nil {
		s.meter.AddRead(raw)
	}
}

func (s *SegmentServer) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			s.handleConn(conn)
		}()
	}
}

// handleConn serves requests on one persistent connection until the
// client closes it or a frame is malformed. The bufio reader lives for
// the connection, so uvarint parsing costs no extra syscalls and any
// bytes it reads ahead stay on this connection's frame stream.
func (s *SegmentServer) handleConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 32<<10)
	for {
		accept, name, err := readRequest(br)
		if err != nil {
			return // client done (EOF), dead, or speaking something else
		}
		if !s.handleOne(conn, name, accept == encodingSnappy) {
			return
		}
	}
}

// appendRequest appends one request frame — the accepted body encoding,
// then the length-prefixed segment name — to dst.
func appendRequest(dst []byte, accept byte, name string) []byte {
	dst = append(dst, accept)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

// readRequest parses one request frame. An accept byte that names no
// encoding means the peer is not speaking this protocol.
func readRequest(r frameReader) (accept byte, name string, err error) {
	accept, err = r.ReadByte()
	if err != nil {
		return 0, "", err
	}
	if accept != encodingRaw && accept != encodingSnappy {
		return 0, "", fmt.Errorf("mr: unknown accept byte 0x%02x", accept)
	}
	buf, err := readLenPrefixed(r, maxNameFrame)
	if err != nil {
		return 0, "", err
	}
	name = string(buf)
	putFrameBuf(buf)
	return accept, name, nil
}

// handleOne answers a single request; it reports whether the connection
// is still at a clean frame boundary and may serve another.
func (s *SegmentServer) handleOne(conn net.Conn, name string, compress bool) bool {
	size, err := s.fs.Size(name)
	if err != nil {
		return writeError(conn, err)
	}
	f, err := s.fs.Open(name)
	if err != nil {
		return writeError(conn, err)
	}
	defer f.Close()
	enc := byte(encodingRaw)
	if compress && size >= wireCompressMin {
		enc = encodingSnappy
	}
	return s.send(conn, f, size, enc)
}

// send streams one body in encoding enc. The header goes out only once
// the first chunk is in hand, so a file that shrank since Size is still
// a reportable error, and then in one send with the first chunk (raw)
// or first block (Snappy), so a small segment costs a single send. The
// rest of an OS-backed raw file is spliced with sendfile. A Snappy body
// is a codec.Snappy stream; its blocks carry their raw lengths, so the
// client needs no terminator: it decodes until they sum to size,
// leaving the connection at a frame boundary.
func (s *SegmentServer) send(conn net.Conn, f io.ReadCloser, size int64, enc byte) bool {
	buf := getCopyBuf()
	defer putCopyBuf(buf)
	n, err := io.ReadFull(f, buf[:min(size, int64(len(buf)))])
	if err != nil {
		// Nothing is on the wire yet. A shrank file is a stable fact the
		// client should hear about; any other read fault drops the
		// connection so the client's retry path sees a transient
		// transport failure, exactly as a mid-body fault would.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return writeError(conn, err)
		}
		return false
	}
	hf := &headFirst{w: conn, head: append(binary.AppendUvarint(nil, uint64(size)+1), enc)} // size+1: 0 means error
	var body io.Writer = hf
	var zw io.WriteCloser
	if enc == encodingSnappy {
		zw, _ = codec.Snappy{}.NewWriter(hf)
		body = zw
	}
	_, err = body.Write(buf[:n])
	sent := int64(n)
	if remaining := size - sent; err == nil && remaining > 0 {
		var m int64
		if osf, raw := iokit.RawFile(f); raw && zw == nil {
			// Zero-copy: a LimitedReader directly over the *os.File lets
			// io.Copy reach TCPConn.ReadFrom, which splices the file to
			// the socket (sendfile) without passing through user space.
			m, err = io.Copy(conn, &io.LimitedReader{R: osf, N: remaining})
		} else {
			m, err = io.CopyBuffer(body, io.LimitReader(f, remaining), buf)
		}
		sent += m
	}
	if zw != nil {
		if cerr := zw.Close(); err == nil {
			err = cerr
		}
	}
	s.count(sent)
	return err == nil && sent == size
}

// headFirst sends a response header in front of the first Write's
// bytes, in one writev, so the header never costs a send of its own.
type headFirst struct {
	w    io.Writer
	head []byte // nil once sent
}

func (h *headFirst) Write(p []byte) (int, error) {
	if h.head == nil {
		return h.w.Write(p)
	}
	bufs := net.Buffers{h.head, p}
	sent, err := bufs.WriteTo(h.w)
	sent -= int64(len(h.head))
	h.head = nil
	return int(max(sent, 0)), err
}

// Close stops the listener, severs live connections — remote clients
// may hold pooled sockets open indefinitely, and a clean shutdown must
// not wait on them — and waits for handler goroutines to drain.
func (s *SegmentServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func writeError(conn net.Conn, err error) bool {
	msg := err.Error()
	if len(msg) > maxErrFrame {
		msg = msg[:maxErrFrame]
	}
	buf := binary.AppendUvarint(nil, 0)
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	buf = append(buf, msg...)
	_, werr := conn.Write(buf)
	return werr == nil
}

// frameReader is what frame parsing needs: a reader that also yields
// single bytes without over-reading. bufio.Reader and bytes.Reader both
// qualify; a bare net.Conn does not, which statically keeps frame
// parsing off the one-syscall-per-byte path.
type frameReader interface {
	io.Reader
	io.ByteReader
}

// readLenPrefixed reads one uvarint-length-prefixed frame, rejecting
// frames larger than max before allocating, so truncated or hostile
// length prefixes cannot force oversized buffers.
func readLenPrefixed(r frameReader, max uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > max {
		return nil, fmt.Errorf("mr: transport frame of %d bytes exceeds limit %d", n, max)
	}
	buf := getFrameBuf(int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		putFrameBuf(buf)
		return nil, err
	}
	return buf, nil
}

// Fetch retry policy: connection-level failures (dial errors, a peer
// dropping the connection before the response header arrives) are
// retried a bounded number of times with jittered exponential backoff —
// the policy shared with the cluster RPC client — so workers that lost
// the same peer do not hammer it back in lockstep. Server-reported
// errors (e.g. a missing segment) are authoritative and fail
// immediately.
const (
	fetchAttempts       = 3
	fetchBackoffBase    = 2 * time.Millisecond
	fetchBackoffCeiling = 250 * time.Millisecond
)

// ConnPool is a keyed client-connection pool for the segment protocol:
// connections are pooled per server address with keep-alive, a fetch
// whose body is fully consumed returns its connection for reuse, and
// connections idle for more than 30s are discarded on next use. Pooling
// matters on multi-reduce jobs: without it every (partition, map task)
// segment fetch pays a fresh TCP dial to the same few servers.
// Concurrent fetches to one server each hold their own connection.
type ConnPool struct {
	// WireCompression requests Snappy-compressed bodies in every fetch's
	// accept byte. Transparent to callers: fetch readers always yield
	// raw bytes; only the bytes on the wire change.
	WireCompression bool

	idleTimeout time.Duration // poolIdleTimeout, shortened by tests
	dials       atomic.Int64

	mu     sync.Mutex
	idle   map[string][]pooledConn
	closed bool
}

// wireConn is a pooled client connection plus the connection-lifetime
// buffered reader every response is parsed through.
type wireConn struct {
	conn net.Conn
	br   *bufio.Reader
}

type pooledConn struct {
	wc     *wireConn
	parked time.Time
}

// A pool keeps at most poolMaxIdle idle connections per server
// address, each for at most poolIdleTimeout.
const (
	poolIdleTimeout = 30 * time.Second
	poolMaxIdle     = 8
)

// NewConnPool returns an empty pool.
func NewConnPool() *ConnPool {
	return &ConnPool{idle: make(map[string][]pooledConn), idleTimeout: poolIdleTimeout}
}

// Dials reports how many TCP dials the pool has performed — the pool's
// miss count. A multi-reduce job with pooling performs far fewer dials
// than it performs fetches.
func (p *ConnPool) Dials() int64 { return p.dials.Load() }

// get returns a pooled connection to addr, or dials a fresh one. fresh
// forces a dial (used after a pooled connection turned out stale).
func (p *ConnPool) get(ctx context.Context, addr string, fresh bool) (*wireConn, error) {
	if !fresh {
		cutoff := time.Now().Add(-p.idleTimeout)
		p.mu.Lock()
		conns := p.idle[addr]
		for len(conns) > 0 {
			pc := conns[len(conns)-1]
			conns = conns[:len(conns)-1]
			p.idle[addr] = conns
			if pc.parked.Before(cutoff) {
				pc.wc.conn.Close()
				continue
			}
			p.mu.Unlock()
			return pc.wc, nil
		}
		p.mu.Unlock()
	}
	p.dials.Add(1)
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireConn{conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}, nil
}

// put parks a connection for reuse; the caller asserts it sits at a
// clean frame boundary (nothing read ahead, nothing owed).
func (p *ConnPool) put(addr string, wc *wireConn) {
	if wc.br.Buffered() != 0 {
		// Read-ahead past a frame boundary means the connection state is
		// not what the next fetch expects; never pool it.
		wc.conn.Close()
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle[addr]) >= poolMaxIdle {
		p.mu.Unlock()
		wc.conn.Close()
		return
	}
	p.idle[addr] = append(p.idle[addr], pooledConn{wc: wc, parked: time.Now()})
	p.mu.Unlock()
}

// Close discards all pooled connections. In-flight fetches keep their
// connections and close them individually.
func (p *ConnPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr, conns := range p.idle {
		for _, pc := range conns {
			pc.wc.conn.Close()
		}
		delete(p.idle, addr)
	}
	return nil
}

// Fetch requests one segment from the server at addr and streams its
// body, retrying connection-level failures with backoff. Cancelling ctx
// closes the in-flight connection, so a fetch whose attempt or job was
// cancelled aborts mid-transfer instead of running to completion.
func (p *ConnPool) Fetch(ctx context.Context, addr, name string) (io.ReadCloser, int64, error) {
	var lastErr error
	for attempt := 0; attempt < fetchAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff.Exp(fetchBackoffBase, attempt, fetchBackoffCeiling)):
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		// Attempt 0 may reuse a pooled connection; if that fails at the
		// connection level it was likely stale, so later attempts dial
		// fresh.
		rc, size, err, retryable := p.fetchOnce(ctx, addr, name, attempt > 0)
		if err == nil {
			return rc, size, nil
		}
		if !retryable {
			return nil, 0, err
		}
		lastErr = err
	}
	return nil, 0, fmt.Errorf("mr: shuffle fetch %s from %s failed after %d attempts: %w",
		name, addr, fetchAttempts, lastErr)
}

// fetchOnce performs a single fetch exchange. retryable reports whether
// the failure happened at the connection level (before a valid response
// header), where a retry may see a healthy connection.
func (p *ConnPool) fetchOnce(ctx context.Context, addr, name string, fresh bool) (rc io.ReadCloser, size int64, err error, retryable bool) {
	wc, err := p.get(ctx, addr, fresh)
	if err != nil {
		return nil, 0, err, true
	}
	conn := wc.conn
	// While this request is in flight, ctx cancellation closes the
	// connection so blocked reads and writes abort promptly.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	fail := func(err error, retryable bool) (io.ReadCloser, int64, error, bool) {
		stop()
		conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, 0, cerr, false
		}
		return nil, 0, err, retryable
	}
	accept := byte(encodingRaw)
	if p.WireCompression {
		accept = encodingSnappy
	}
	if _, err := conn.Write(appendRequest(nil, accept, name)); err != nil {
		return fail(err, true)
	}
	sizePlus, err := binary.ReadUvarint(wc.br)
	if err != nil {
		return fail(err, true)
	}
	if sizePlus == 0 {
		msg, err := readLenPrefixed(wc.br, maxErrFrame)
		if err != nil {
			return fail(fmt.Errorf("mr: shuffle fetch failed: %w", err), true)
		}
		// Server-reported errors are authoritative; the connection is at
		// a frame boundary, so it can be reused.
		stop()
		p.put(addr, wc)
		ferr := fmt.Errorf("mr: shuffle fetch %s from %s: %s", name, addr, msg)
		putFrameBuf(msg)
		return nil, 0, ferr, false
	}
	size = int64(sizePlus - 1)
	enc, err := wc.br.ReadByte()
	if err != nil {
		return fail(err, true)
	}
	fr := &fetchReader{pool: p, addr: addr, wc: wc, ctx: ctx, stop: stop, size: size, remaining: size}
	if err := fr.decode(enc); err != nil {
		return fail(err, true)
	}
	return fr, size, nil, false
}

// fetchReader streams one fetch body. Closing it after the body is
// fully consumed returns the connection to the pool; closing early (or
// after cancellation) discards it.
type fetchReader struct {
	pool      *ConnPool
	addr      string
	wc        *wireConn
	ctx       context.Context
	stop      func() bool
	size      int64
	remaining int64
	body      wireBody      // the body's bytes off the connection
	dec       io.ReadCloser // codec.Snappy decoder over body; nil for raw bodies
	overrun   bool          // dec held bytes past size
	closed    bool
}

// wireBody is a body's view of the connection: it counts the bytes
// taken off the socket, and once ended it starts no block header, so
// asking a Snappy decoder for bytes past the body's size can neither
// block on nor consume the next response.
type wireBody struct {
	br    *bufio.Reader
	n     int64
	ended bool
}

func (b *wireBody) Read(p []byte) (int, error) {
	n, err := b.br.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *wireBody) ReadByte() (byte, error) {
	if b.ended {
		return 0, io.EOF
	}
	c, err := b.br.ReadByte()
	if err == nil {
		b.n++
	}
	return c, err
}

// decode sets up the reader for a body in encoding enc.
func (f *fetchReader) decode(enc byte) error {
	f.body.br = f.wc.br
	if enc == encodingSnappy {
		f.dec, _ = codec.Snappy{}.NewReader(&f.body)
	} else if enc != encodingRaw {
		return fmt.Errorf("mr: unknown body encoding 0x%02x", enc)
	}
	return nil
}

func (f *fetchReader) Read(p []byte) (int, error) {
	// Cancellation closes the connection from another goroutine; what the
	// socket and the buffer already hold must not be delivered meanwhile.
	if err := f.ctx.Err(); err != nil {
		return 0, err
	}
	if f.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.remaining {
		p = p[:f.remaining]
	}
	var src io.Reader = &f.body
	if f.dec != nil {
		src = f.dec
	}
	n, err := src.Read(p)
	f.remaining -= int64(n)
	if err == nil && f.remaining == 0 && f.dec != nil {
		// The body is complete; its blocks must be too. A decoder that
		// still holds bytes has decoded past the advertised size.
		f.body.ended = true
		if m, _ := f.dec.Read(make([]byte, 1)); m > 0 {
			f.overrun = true
			err = fmt.Errorf("mr: compressed body decodes past its %d bytes", f.size)
		}
	}
	if err != nil {
		// Surface cancellation as the cause when it closed the conn.
		if cerr := f.ctx.Err(); cerr != nil {
			return n, cerr
		}
		if f.remaining > 0 && err == io.EOF {
			// The peer ended the stream while still owing bytes: that is
			// a truncation and must fail loudly (io.Copy treats a bare
			// io.EOF as a clean end).
			err = io.ErrUnexpectedEOF
		}
		return n, err
	}
	return n, nil
}

// WireBytes reports the socket bytes consumed for the body so far: the
// raw count for uncompressed fetches, the compressed stream's otherwise.
// Meaningful once the body is fully read.
func (f *fetchReader) WireBytes() int64 { return f.body.n }

func (f *fetchReader) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.stop()
	if f.dec != nil {
		f.dec.Close()
	}
	if f.remaining == 0 && !f.overrun && f.ctx.Err() == nil {
		f.pool.put(f.addr, f.wc)
		return nil
	}
	return f.wc.conn.Close()
}

// WireBytes reports the bytes a fetched body occupied on the network,
// when rc came from a wire transport that tracks them (ConnPool's fetch
// readers do). Callers feed this into the shuffle wire counters next to
// the raw size.
func WireBytes(rc io.ReadCloser) (int64, bool) {
	if w, ok := rc.(interface{ WireBytes() int64 }); ok {
		return w.WireBytes(), true
	}
	return 0, false
}

// Extra counters for the shuffle wire: raw body bytes fetched versus
// bytes those bodies occupied on the wire. With compression requested
// the wire count drops below raw; without it they match.
const (
	CounterShuffleRawBytes  = "mr.shuffleRawBytes"
	CounterShuffleWireBytes = "mr.shuffleWireBytes"
)

// countWireBytes records the raw-vs-wire pair for one fully consumed
// fetch body.
func countWireBytes(counters *Counters, rc io.ReadCloser, raw int64) {
	if counters == nil {
		return
	}
	if wire, ok := WireBytes(rc); ok {
		counters.AddExtra(CounterShuffleRawBytes, raw)
		counters.AddExtra(CounterShuffleWireBytes, wire)
	}
}

// MuxFetcher is the name ConnPool.Fetch went by while a multiplexing
// client existed. Only the benchmark module still compiles against it.
//
// Deprecated: call ConnPool.Fetch. ROADMAP item 1A deletes this alias.
type MuxFetcher struct{ pool *ConnPool }

func NewMuxFetcher(pool *ConnPool) *MuxFetcher { return &MuxFetcher{pool: pool} }

func (m *MuxFetcher) Fetch(ctx context.Context, addr, name string) (io.ReadCloser, int64, error) {
	return m.pool.Fetch(ctx, addr, name)
}

func (m *MuxFetcher) Sessions() int64 { return 0 }
func (m *MuxFetcher) Muxed() int64    { return 0 }
