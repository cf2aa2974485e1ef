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

// Wire protocol. The base frame shapes are v1's: the client sends a
// uvarint-length-prefixed file name, the server answers uvarint(size+1)
// then the body, or uvarint(0) plus a length-prefixed error string.
//
// v2 adds a capability handshake without costing a round trip. Names
// are never empty, so a first byte of 0x00 can never start a legal v1
// request; v2 clients use it as a control escape. At connect the client
// pipelines a hello — 0x00, wireMagic, caps — in the same write as its
// first request, and reads the server's two-byte ack (wireMagicAck,
// granted caps) before the first response header. Every later frame
// beginning 0x00 is a control frame (today: a mux batch open, mux.go).
// A v2 server that never sees a hello serves the connection as pure v1,
// which is the compatibility fallback for old clients.
//
// Negotiable capabilities:
//
//   - capCompress: response bodies may be Snappy-compressed. The
//     response header gains one encoding byte after the size, and a
//     compressed body is a sequence of uvarint(len)-prefixed Snappy
//     blocks that decode to exactly the advertised raw size.
//   - capMux: the client may multiplex many segment requests onto the
//     connection as one batch with per-stream flow control (mux.go).
const (
	wireHello    = 0x00
	wireMagic    = 0xA5
	wireMagicAck = 0x5A

	capCompress = 0x01
	capMux      = 0x02
	serverCaps  = capCompress | capMux

	encodingRaw    = 0x00
	encodingSnappy = 0x01

	// wireCompressMin is the smallest body worth compressing; below it
	// the encoding byte says raw and the body is verbatim.
	wireCompressMin = 512

	// wireChunk is the body chunk size: the unit of compression, of mux
	// DATA frames, and of the coalesced header+first-bytes write.
	wireChunk = copyBufSize

	// maxWireUnit bounds one compressed unit: a wireChunk of
	// incompressible bytes grows only by the block preamble and literal
	// headers, so anything larger is a corrupt or hostile length.
	maxWireUnit = wireChunk + 64
)

// Wire protocol frame limits. Request frames carry file names; error
// frames carry error strings. Anything larger is rejected before
// allocation so a corrupt or hostile peer cannot force large buffers.
const (
	maxNameFrame = 4 << 10
	maxErrFrame  = 64 << 10
)

// SegmentServer serves segment files from an FS over TCP, speaking the
// persistent length-prefixed protocol above. After a response the
// connection returns to a clean frame boundary and the client may issue
// the next request on it, which is what makes connection pooling
// possible. It is the addressable generalization of the loopback-only
// shuffle server: cluster workers bind it on a routable address and
// peer workers fetch from it directly.
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
	var caps byte
	for {
		b0, err := br.ReadByte()
		if err != nil {
			return // client done (EOF) or dead
		}
		if b0 == wireHello {
			ctrl, err := br.ReadByte()
			if err != nil {
				return
			}
			switch ctrl {
			case wireMagic:
				want, err := br.ReadByte()
				if err != nil {
					return
				}
				caps = want & serverCaps
				if _, err := conn.Write([]byte{wireMagicAck, caps}); err != nil {
					return
				}
			case ctrlBatch:
				if caps&capMux == 0 {
					return // batch frame without negotiating mux
				}
				if !s.handleBatch(conn, br, caps) {
					return
				}
			default:
				return // unknown control frame
			}
			continue
		}
		if err := br.UnreadByte(); err != nil {
			return
		}
		nameBuf, err := readLenPrefixed(br, maxNameFrame)
		if err != nil {
			return
		}
		name := string(nameBuf)
		putFrameBuf(nameBuf)
		if !s.handleOne(conn, name, caps) {
			return
		}
	}
}

// handleOne answers a single request; it reports whether the connection
// is still at a clean frame boundary and may serve another.
func (s *SegmentServer) handleOne(conn net.Conn, name string, caps byte) bool {
	size, err := s.fs.Size(name)
	if err != nil {
		return writeError(conn, err)
	}
	f, err := s.fs.Open(name)
	if err != nil {
		return writeError(conn, err)
	}
	defer f.Close()
	if caps&capCompress != 0 && size >= wireCompressMin {
		return s.sendCompressed(conn, f, size)
	}
	return s.sendRaw(conn, f, size, caps)
}

// sendRaw streams a body verbatim. The response header and the first
// body chunk are coalesced into one write, so small segments cost a
// single send instead of a header packet plus a body packet; the rest
// of an OS-backed file is spliced with sendfile.
func (s *SegmentServer) sendRaw(conn net.Conn, f io.ReadCloser, size int64, caps byte) bool {
	buf := getCopyBuf()
	defer putCopyBuf(buf)
	hdr := binary.AppendUvarint(buf[:0], uint64(size)+1) // size+1: 0 means error
	if caps&capCompress != 0 {
		hdr = append(hdr, encodingRaw)
	}
	first := int64(len(buf) - len(hdr))
	if first > size {
		first = size
	}
	n, err := io.ReadFull(f, buf[len(hdr):int64(len(hdr))+first])
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
	if _, err := conn.Write(buf[:len(hdr)+n]); err != nil {
		return false
	}
	sent := int64(n)
	ok := true
	if remaining := size - sent; remaining > 0 {
		var m int64
		if osf, raw := iokit.RawFile(f); raw {
			// Zero-copy: a LimitedReader directly over the *os.File lets
			// io.Copy reach TCPConn.ReadFrom, which splices the file to
			// the socket (sendfile) without passing through user space.
			m, err = io.Copy(conn, &io.LimitedReader{R: osf, N: remaining})
		} else {
			m, err = io.CopyBuffer(conn, io.LimitReader(f, remaining), buf)
		}
		sent += m
		ok = err == nil && m == remaining
	}
	s.count(sent)
	return ok
}

// sendCompressed streams a body as uvarint(len)-prefixed Snappy blocks.
// Each block carries its own raw length, so the client needs no
// terminator: it reads blocks until their raw sizes sum to the
// advertised body size, leaving the connection at a frame boundary.
func (s *SegmentServer) sendCompressed(conn net.Conn, f io.ReadCloser, size int64) bool {
	chunk := getCopyBuf()
	defer putCopyBuf(chunk)
	var out, block []byte
	var raw int64
	hdrDone := false
	for raw < size {
		n := size - raw
		if n > int64(len(chunk)) {
			n = int64(len(chunk))
		}
		if _, err := io.ReadFull(f, chunk[:n]); err != nil {
			if !hdrDone && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
				return writeError(conn, err) // file shrank: stable, reportable
			}
			s.count(raw)
			return false
		}
		block = codec.AppendSnappyBlock(block[:0], chunk[:n])
		out = out[:0]
		if !hdrDone {
			out = binary.AppendUvarint(out, uint64(size)+1)
			out = append(out, encodingSnappy)
			hdrDone = true
		}
		out = binary.AppendUvarint(out, uint64(len(block)))
		out = append(out, block...)
		if _, err := conn.Write(out); err != nil {
			s.count(raw)
			return false
		}
		raw += n
	}
	s.count(raw)
	return true
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

// uvarintLen reports how many bytes binary.AppendUvarint emits for v —
// used to post-count wire framing without materializing it twice.
func uvarintLen(v uint64) int64 {
	n := int64(1)
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
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
// segment fetch pays a fresh TCP dial to the same few servers — and
// with protocol v2 a pooled connection also keeps its negotiated
// capabilities, so the handshake is paid once per connection, not per
// fetch.
type ConnPool struct {
	// WireCompression requests Snappy-compressed bodies during the
	// connection handshake. Transparent to callers: fetch readers always
	// yield raw bytes; only the bytes on the wire change.
	WireCompression bool

	idleTimeout time.Duration // poolIdleTimeout, shortened by tests
	dials       atomic.Int64

	mu     sync.Mutex
	idle   map[string][]pooledConn
	closed bool
}

// wireConn is a pooled client connection plus its negotiated state: the
// connection-lifetime buffered reader every response is parsed through,
// and the capability set agreed at handshake.
type wireConn struct {
	conn       net.Conn
	br         *bufio.Reader
	caps       byte
	handshaken bool
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

// clientCaps is what this pool asks for in a hello frame.
func (p *ConnPool) clientCaps() byte {
	caps := byte(capMux)
	if p.WireCompression {
		caps |= capCompress
	}
	return caps
}

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
// closes the in-flight connection, so a fetch that lost a speculative
// race or belongs to a cancelled job aborts mid-transfer instead of
// running to completion.
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

// readAck consumes the server's two-byte handshake ack and records the
// granted capabilities on the connection.
func (wc *wireConn) readAck(want byte) error {
	var ack [2]byte
	if _, err := io.ReadFull(wc.br, ack[:]); err != nil {
		return err
	}
	if ack[0] != wireMagicAck {
		return fmt.Errorf("mr: bad handshake ack 0x%02x", ack[0])
	}
	wc.caps = ack[1] & want
	wc.handshaken = true
	return nil
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
	// A fresh connection pipelines the hello with the request in one
	// write; the handshake costs no extra round trip.
	var req []byte
	want := p.clientCaps()
	if !wc.handshaken {
		req = append(req, wireHello, wireMagic, want)
	}
	req = binary.AppendUvarint(req, uint64(len(name)))
	req = append(req, name...)
	if _, err := conn.Write(req); err != nil {
		return fail(err, true)
	}
	if !wc.handshaken {
		if err := wc.readAck(want); err != nil {
			return fail(err, true)
		}
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
	fr := &fetchReader{pool: p, addr: addr, wc: wc, ctx: ctx, stop: stop, size: size, remaining: size}
	if wc.caps&capCompress != 0 {
		enc, err := wc.br.ReadByte()
		if err != nil {
			return fail(err, true)
		}
		switch enc {
		case encodingRaw:
		case encodingSnappy:
			fr.dec = &snappyUnitReader{br: wc.br, remaining: size}
		default:
			return fail(fmt.Errorf("mr: unknown body encoding 0x%02x", enc), true)
		}
	}
	return fr, size, nil, false
}

// snappyUnitReader decodes a compressed body: uvarint(len)-prefixed
// Snappy blocks whose raw sizes sum to exactly remaining. It consumes
// nothing past the final block, so the connection lands on a clean
// frame boundary.
type snappyUnitReader struct {
	br        *bufio.Reader
	remaining int64 // raw bytes the stream still owes
	wire      int64 // framed bytes consumed off the socket
	block     []byte
	pos       int
	err       error
}

func (d *snappyUnitReader) Read(p []byte) (int, error) {
	for d.pos >= len(d.block) {
		if d.err != nil {
			return 0, d.err
		}
		if d.remaining <= 0 {
			d.err = io.EOF
			return 0, io.EOF
		}
		if err := d.fill(); err != nil {
			d.err = err
			return 0, err
		}
	}
	n := copy(p, d.block[d.pos:])
	d.pos += n
	return n, nil
}

func (d *snappyUnitReader) fill() error {
	compLen, err := binary.ReadUvarint(d.br)
	if err != nil {
		return unexpectedEOF(err)
	}
	if compLen == 0 || compLen > maxWireUnit {
		return fmt.Errorf("mr: compressed wire unit of %d bytes exceeds limit %d", compLen, maxWireUnit)
	}
	buf := getFrameBuf(int(compLen))
	if _, err := io.ReadFull(d.br, buf); err != nil {
		putFrameBuf(buf)
		return unexpectedEOF(err)
	}
	block, err := codec.DecompressSnappyBlock(buf)
	putFrameBuf(buf)
	if err != nil {
		return fmt.Errorf("mr: wire decompression: %w", err)
	}
	if len(block) == 0 || int64(len(block)) > d.remaining {
		return fmt.Errorf("mr: wire unit decoded to %d raw bytes with %d expected", len(block), d.remaining)
	}
	d.wire += uvarintLen(compLen) + int64(compLen)
	d.remaining -= int64(len(block))
	d.block, d.pos = block, 0
	return nil
}

// unexpectedEOF maps a clean EOF mid-structure to ErrUnexpectedEOF:
// for a reader that still owes bytes, a peer hanging up early is a
// truncation, never a clean end.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
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
	dec       *snappyUnitReader // nil for raw bodies
	closed    bool
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
	var n int
	var err error
	if f.dec != nil {
		n, err = f.dec.Read(p)
	} else {
		n, err = f.wc.br.Read(p)
	}
	f.remaining -= int64(n)
	if err != nil {
		// Surface cancellation as the cause when it closed the conn.
		if cerr := f.ctx.Err(); cerr != nil {
			return n, cerr
		}
		if f.remaining > 0 {
			// The peer ended the stream while still owing bytes: that is
			// a truncation and must fail loudly (io.Copy treats a bare
			// io.EOF as a clean end).
			return n, unexpectedEOF(err)
		}
		return n, err
	}
	return n, nil
}

// WireBytes reports the socket bytes consumed for the body so far: the
// raw count for uncompressed fetches, the framed compressed count
// otherwise. Meaningful once the body is fully read.
func (f *fetchReader) WireBytes() int64 {
	if f.dec != nil {
		return f.dec.wire
	}
	return f.size - f.remaining
}

func (f *fetchReader) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.stop()
	if f.remaining == 0 && f.ctx.Err() == nil {
		f.pool.put(f.addr, f.wc)
		return nil
	}
	return f.wc.conn.Close()
}

// WireBytes reports the bytes a fetched body occupied on the network,
// when rc came from a wire transport that tracks them (pooled and
// multiplexed fetch readers do). Callers feed this into the shuffle
// wire counters next to the raw size.
func WireBytes(rc io.ReadCloser) (int64, bool) {
	if w, ok := rc.(interface{ WireBytes() int64 }); ok {
		return w.WireBytes(), true
	}
	return 0, false
}

// Extra counters for the shuffle wire: raw body bytes fetched versus
// bytes those bodies occupied on the wire. With compression negotiated
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

// TCPTransport is the single-process shuffle-over-sockets transport: a
// SegmentServer on loopback plus a pooled, multiplexing client fetching
// from it.
type TCPTransport struct {
	srv  *SegmentServer
	pool *ConnPool
	mux  *MuxFetcher
}

// NewTCPTransport starts a loopback listener serving fs.
func NewTCPTransport(fs iokit.FS) (*TCPTransport, error) {
	return newTCPTransport(fs, nil, false)
}

// newTCPTransport starts the loopback transport, optionally wrapping
// the listener (Job.WrapShuffleListener — the chaos harness's
// data-plane injection point) and negotiating wire compression
// (Job.WireCompression).
func newTCPTransport(fs iokit.FS, wrap func(net.Listener) net.Listener, compress bool) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		wrapped := wrap(ln)
		if wrapped == nil {
			ln.Close()
			return nil, errors.New("mr: WrapShuffleListener returned a nil listener")
		}
		ln = wrapped
	}
	pool := NewConnPool()
	pool.WireCompression = compress
	return &TCPTransport{srv: NewSegmentServerOn(fs, ln, nil), pool: pool, mux: NewMuxFetcher(pool)}, nil
}

// Addr reports the listener address (tests and diagnostics).
func (t *TCPTransport) Addr() string { return t.srv.Addr() }

// Dials reports the TCP dials performed by the transport's pool.
func (t *TCPTransport) Dials() int64 { return t.pool.Dials() }

// Fetch requests the segment from the loopback
// server over a pooled socket, riding a multiplexed batch when other
// fetches to the server are in flight.
func (t *TCPTransport) Fetch(ctx context.Context, _ iokit.FS, name string) (io.ReadCloser, int64, error) {
	return t.mux.Fetch(ctx, t.srv.Addr(), name)
}

// Close discards pooled connections, stops the
// listener, and waits for in-flight connections.
func (t *TCPTransport) Close() error {
	t.pool.Close()
	return t.srv.Close()
}
