package mr

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
)

// Multiplexed fetches. A reduce wave asks one peer for many segments;
// fetching them request-by-request pays a full round trip per segment
// and holds one pooled connection per in-flight fetch. The mux layer
// batches concurrent requests for the same peer onto a single
// connection: the client opens a batch (a control frame listing the
// segment names and a per-stream flow-control window), the server
// interleaves the bodies as framed stream chunks, and the client demuxes
// them back into independent readers.
//
// Client → server, after the batch open:
//
//	grant  := uvarint(idx) uvarint(rawBytes)     // widen stream idx's window
//	ack    := uvarint(count) uvarint(0)          // after DONE: batch finished
//
// Server → client frames:
//
//	HDR    := 0x01 uvarint(idx) uvarint(size+1) [encoding]   // size+1: 0 = error
//	          (on error: uvarint(len) msg instead of encoding)
//	DATA   := 0x02 uvarint(idx) uvarint(len) payload
//	END    := 0x03 uvarint(idx)                  // stream complete
//	ABORT  := 0x04 uvarint(idx) uvarint(len) msg // stream died mid-body
//	DONE   := 0x05                               // all streams complete
//
// DATA payloads are raw chunks, or single self-framed Snappy blocks on
// compression-negotiated connections. Windows count raw bytes, so flow
// control is independent of compression ratio. The final ack exists so
// the server's grant reader can release the connection at a known frame
// boundary, which is what lets the client return it to the pool.
const (
	ctrlBatch = 0x01

	muxHdr   = 0x01
	muxData  = 0x02
	muxEnd   = 0x03
	muxAbort = 0x04
	muxDone  = 0x05

	// maxBatchStreams bounds the streams a server accepts in one batch;
	// maxClientBatch is the smaller batch clients actually open.
	maxBatchStreams = 256
	maxClientBatch  = 32
	// maxPeerSessions caps concurrent sessions per peer. The cap is the
	// group-commit mechanism: while a peer's slots are busy, arriving
	// fetches pool up and depart as one batch when a slot frees.
	maxPeerSessions = 2

	// muxWindow is the client's default per-stream window: how many raw
	// bytes the server may have in flight per stream before a grant.
	muxWindow = 256 << 10
	// maxMuxWindow bounds windows and grants a server will honor.
	maxMuxWindow = 16 << 20
	// maxMuxPayload bounds one DATA payload: a wireChunk raw chunk or
	// its compressed (worst case slightly expanded) block.
	maxMuxPayload = maxWireUnit
)

// handleBatch serves one multiplexed batch on the connection. It
// reports whether the connection ends at a clean frame boundary.
func (s *SegmentServer) handleBatch(conn io.Writer, br *bufio.Reader, caps byte) bool {
	count64, err := binary.ReadUvarint(br)
	if err != nil || count64 == 0 || count64 > maxBatchStreams {
		return false
	}
	window64, err := binary.ReadUvarint(br)
	// Windows below one chunk could never admit a send; reject them
	// instead of deadlocking on them.
	if err != nil || window64 < wireChunk || window64 > maxMuxWindow {
		return false
	}
	count := int(count64)
	names := make([]string, count)
	for i := range names {
		nameBuf, err := readLenPrefixed(br, maxNameFrame)
		if err != nil {
			return false
		}
		names[i] = string(nameBuf)
		putFrameBuf(nameBuf)
	}

	b := &batchSender{s: s, conn: conn, caps: caps, windows: make([]int64, count)}
	b.cond = sync.NewCond(&b.mu)
	for i := range b.windows {
		b.windows[i] = int64(window64)
	}

	// The grant reader owns br until the client's final ack; stream
	// senders never touch the read side.
	ackOK := make(chan bool, 1)
	go func() { ackOK <- b.readGrants(br, count) }()

	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(idx int, name string) {
			defer wg.Done()
			b.serveStream(idx, name)
		}(i, names[i])
	}
	wg.Wait()
	b.write([]byte{muxDone})
	ok := <-ackOK
	b.mu.Lock()
	failed := b.failed
	b.mu.Unlock()
	return ok && !failed
}

// batchSender is the server side of one batch: a write mutex
// serializing frames from concurrent stream senders, and the per-stream
// raw-byte windows replenished by client grants.
type batchSender struct {
	s    *SegmentServer
	conn io.Writer
	caps byte

	wmu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	windows []int64
	failed  bool
}

// fail poisons the batch: blocked window waits abort and the connection
// is reported unclean.
func (b *batchSender) fail() {
	b.mu.Lock()
	b.failed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *batchSender) write(p []byte) bool {
	b.wmu.Lock()
	_, err := b.conn.Write(p)
	b.wmu.Unlock()
	if err != nil {
		b.fail()
		return false
	}
	return true
}

// readGrants consumes window grants until the client acks the batch end
// (idx == count). It reports whether the ack arrived cleanly.
func (b *batchSender) readGrants(br *bufio.Reader, count int) bool {
	for {
		idx, err := binary.ReadUvarint(br)
		if err != nil {
			b.fail()
			return false
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			b.fail()
			return false
		}
		if idx == uint64(count) {
			if n != 0 {
				b.fail()
				return false
			}
			return true
		}
		if idx > uint64(count) || n > maxMuxWindow {
			b.fail()
			return false
		}
		b.mu.Lock()
		b.windows[idx] += int64(n)
		b.mu.Unlock()
		b.cond.Broadcast()
	}
}

// acquire blocks until stream idx's window admits n raw bytes.
func (b *batchSender) acquire(idx int, n int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.windows[idx] < n && !b.failed {
		b.cond.Wait()
	}
	if b.failed {
		return false
	}
	b.windows[idx] -= n
	return true
}

func (b *batchSender) writeStreamError(frame byte, idx int, err error) {
	msg := err.Error()
	if len(msg) > maxErrFrame {
		msg = msg[:maxErrFrame]
	}
	out := []byte{frame}
	out = binary.AppendUvarint(out, uint64(idx))
	if frame == muxHdr {
		out = binary.AppendUvarint(out, 0)
	}
	out = binary.AppendUvarint(out, uint64(len(msg)))
	out = append(out, msg...)
	b.write(out)
}

// serveStream sends one stream: HDR, windowed DATA chunks, END. Open
// and size errors become error HDRs; a read failure mid-body becomes an
// ABORT, leaving the frame stream intact for the other streams.
func (b *batchSender) serveStream(idx int, name string) {
	size, err := b.s.fs.Size(name)
	if err != nil {
		b.writeStreamError(muxHdr, idx, err)
		return
	}
	f, err := b.s.fs.Open(name)
	if err != nil {
		b.writeStreamError(muxHdr, idx, err)
		return
	}
	defer f.Close()

	compress := b.caps&capCompress != 0 && size >= wireCompressMin
	hdr := []byte{muxHdr}
	hdr = binary.AppendUvarint(hdr, uint64(idx))
	hdr = binary.AppendUvarint(hdr, uint64(size)+1)
	if b.caps&capCompress != 0 {
		if compress {
			hdr = append(hdr, encodingSnappy)
		} else {
			hdr = append(hdr, encodingRaw)
		}
	}
	if !b.write(hdr) {
		return
	}

	chunk := getCopyBuf()
	defer putCopyBuf(chunk)
	var out, block []byte
	var raw int64
	defer func() { b.s.count(raw) }()
	for raw < size {
		n := size - raw
		if n > int64(len(chunk)) {
			n = int64(len(chunk))
		}
		if _, err := io.ReadFull(f, chunk[:n]); err != nil {
			b.writeStreamError(muxAbort, idx, err)
			return
		}
		if !b.acquire(idx, n) {
			return
		}
		payload := chunk[:n]
		if compress {
			block = codec.AppendSnappyBlock(block[:0], chunk[:n])
			payload = block
		}
		out = out[:0]
		out = append(out, muxData)
		out = binary.AppendUvarint(out, uint64(idx))
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
		if !b.write(out) {
			return
		}
		raw += n
	}
	end := []byte{muxEnd}
	end = binary.AppendUvarint(end, uint64(idx))
	b.write(end)
}

// MuxFetcher coalesces concurrent fetches to the same peer onto
// multiplexed batches. Fetch has the same contract as ConnPool.Fetch
// and is a drop-in for it: a request that cannot ride a batch — it
// arrived alone, the peer has not negotiated mux, or the batch died
// before this stream's header — falls back transparently to the
// sequential pooled path, keeping its retry semantics. Failures after a
// stream header surface on the stream reader, exactly like a sequential
// fetch failing mid-body.
type MuxFetcher struct {
	pool     *ConnPool
	maxBatch int
	window   int64 // per-stream raw-byte window (tests shrink it)

	mu    sync.Mutex
	peers map[string]*muxPeer

	sessions atomic.Int64
	muxed    atomic.Int64
}

type muxPeer struct {
	pending  []*muxReq
	active   bool
	inflight int
	idle     chan struct{} // signalled when a session slot frees
}

type muxReq struct {
	ctx  context.Context
	name string
	res  chan muxRes
}

type muxRes struct {
	rc       io.ReadCloser
	size     int64
	err      error
	fallback bool
}

// NewMuxFetcher returns a fetcher multiplexing over pool's connections.
func NewMuxFetcher(pool *ConnPool) *MuxFetcher {
	return &MuxFetcher{pool: pool, maxBatch: maxClientBatch, window: muxWindow, peers: make(map[string]*muxPeer)}
}

// Sessions reports how many multiplexed batch sessions have run.
func (m *MuxFetcher) Sessions() int64 { return m.sessions.Load() }

// Muxed reports how many fetches rode a multiplexed batch rather than
// the sequential pooled path.
func (m *MuxFetcher) Muxed() int64 { return m.muxed.Load() }

// Fetch requests one segment, riding a shared batch when other fetches
// to the same peer are in flight (group commit: whatever is pending
// when a dispatcher runs forms one batch — no timer, no added latency).
func (m *MuxFetcher) Fetch(ctx context.Context, addr, name string) (io.ReadCloser, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	req := &muxReq{ctx: ctx, name: name, res: make(chan muxRes, 1)}
	m.mu.Lock()
	pm := m.peers[addr]
	if pm == nil {
		pm = &muxPeer{idle: make(chan struct{})}
		m.peers[addr] = pm
	}
	pm.pending = append(pm.pending, req)
	if !pm.active {
		pm.active = true
		go m.dispatch(addr, pm)
	}
	m.mu.Unlock()
	select {
	case r := <-req.res:
		if r.fallback {
			return m.pool.Fetch(ctx, addr, name)
		}
		return r.rc, r.size, r.err
	case <-ctx.Done():
		// The dispatcher still owes this request exactly one result; if
		// a body reader arrives after we bail, discard it so its session
		// is not left waiting on window grants.
		go func() {
			if r := <-req.res; r.rc != nil {
				r.rc.Close()
			}
		}()
		return nil, 0, ctx.Err()
	}
}

// dispatch drains a peer's pending requests into batch sessions. It
// exits when the queue is empty; the next Fetch restarts it.
//
// Group commit without a timer: at most maxPeerSessions sessions run
// per peer, so the first request (or two) to an idle peer departs
// immediately, and requests arriving while the peer is busy accumulate
// into one batch that departs the moment a slot frees. Batching emerges
// exactly when it pays — under concurrent load — and a lone fetch never
// waits on a clock.
func (m *MuxFetcher) dispatch(addr string, pm *muxPeer) {
	m.mu.Lock()
	for {
		if len(pm.pending) == 0 {
			pm.active = false
			m.mu.Unlock()
			return
		}
		if pm.inflight >= maxPeerSessions {
			idle := pm.idle
			m.mu.Unlock()
			<-idle
			m.mu.Lock()
			continue
		}
		n := len(pm.pending)
		if n > m.maxBatch {
			n = m.maxBatch
		}
		group := pm.pending[:n:n]
		pm.pending = pm.pending[n:]
		pm.inflight++
		m.mu.Unlock()
		go func() {
			m.runBatch(addr, group)
			m.mu.Lock()
			pm.inflight--
			close(pm.idle)
			pm.idle = make(chan struct{})
			m.mu.Unlock()
		}()
		m.mu.Lock()
	}
}

func (m *MuxFetcher) runBatch(addr string, group []*muxReq) {
	live := make([]*muxReq, 0, len(group))
	for _, r := range group {
		if err := r.ctx.Err(); err != nil {
			r.res <- muxRes{err: err}
		} else {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
	case 1:
		// A batch of one gains nothing from mux framing; the sequential
		// pooled path serves it with one fewer frame layer.
		r := live[0]
		rc, size, err := m.pool.Fetch(r.ctx, addr, r.name)
		r.res <- muxRes{rc: rc, size: size, err: err}
	default:
		m.runMux(addr, live)
	}
}

// runMux opens one batch session and demuxes its frames. Every request
// in group receives exactly one result.
//
// The session carries every request's stream, so it belongs to none of
// their contexts: a requester that finishes early has its context
// cancelled (the scheduler cancels an attempt's context on completion)
// while its siblings' bodies are still in flight. A cancelled request
// only abandons its own stream; the session is abandoned when the last
// requester has gone.
func (m *MuxFetcher) runMux(addr string, group []*muxReq) {
	ctx, abandon := context.WithCancel(context.Background())
	defer abandon()
	var gone atomic.Int32
	for _, r := range group {
		stop := context.AfterFunc(r.ctx, func() {
			if gone.Add(1) == int32(len(group)) {
				abandon()
			}
		})
		defer stop()
	}
	delivered := make([]bool, len(group))
	bail := func() {
		for i, r := range group {
			if !delivered[i] {
				delivered[i] = true
				r.res <- muxRes{fallback: true}
			}
		}
	}
	wc, err := m.pool.get(ctx, addr, false)
	if err != nil {
		bail()
		return
	}
	if wc.handshaken && wc.caps&capMux == 0 {
		// This connection negotiated mux away; park it and serve the
		// group sequentially.
		m.pool.put(addr, wc)
		bail()
		return
	}
	stop := context.AfterFunc(ctx, func() { wc.conn.Close() })
	defer stop()

	want := m.pool.clientCaps()
	var req []byte
	if !wc.handshaken {
		req = append(req, wireHello, wireMagic, want)
	}
	req = append(req, wireHello, ctrlBatch)
	req = binary.AppendUvarint(req, uint64(len(group)))
	req = binary.AppendUvarint(req, uint64(m.window))
	for _, r := range group {
		req = binary.AppendUvarint(req, uint64(len(r.name)))
		req = append(req, r.name...)
	}
	if _, err := wc.conn.Write(req); err != nil {
		wc.conn.Close()
		bail()
		return
	}
	if !wc.handshaken {
		if err := wc.readAck(want); err != nil {
			wc.conn.Close()
			bail()
			return
		}
		if wc.caps&capMux == 0 {
			// The server refused mux after the batch frame was already
			// pipelined; it drops the connection, we serve sequentially.
			wc.conn.Close()
			bail()
			return
		}
	}
	m.sessions.Add(1)
	m.muxed.Add(int64(len(group)))

	sess := &muxSession{wc: wc, window: m.window}
	streams := make([]*muxStream, len(group))
	ended := make([]bool, len(group))
	endedCount := 0
	kill := func(err error) {
		sess.finish()
		wc.conn.Close()
		for _, st := range streams {
			if st != nil {
				st.fail(err)
			}
		}
		bail()
	}
	readIdx := func() (int, bool) {
		idx64, err := binary.ReadUvarint(wc.br)
		if err != nil || idx64 >= uint64(len(group)) {
			return 0, false
		}
		return int(idx64), true
	}

	for {
		t, err := wc.br.ReadByte()
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
			kill(fmt.Errorf("mr: mux session to %s: %w", addr, unexpectedEOF(err)))
			return
		}
		switch t {
		case muxHdr:
			idx, ok := readIdx()
			if !ok || streams[idx] != nil || ended[idx] || delivered[idx] {
				kill(fmt.Errorf("mr: mux session to %s: bad HDR", addr))
				return
			}
			sizePlus, err := binary.ReadUvarint(wc.br)
			if err != nil {
				kill(unexpectedEOF(err))
				return
			}
			if sizePlus == 0 {
				msg, err := readLenPrefixed(wc.br, maxErrFrame)
				if err != nil {
					kill(unexpectedEOF(err))
					return
				}
				// Server-reported: authoritative, no retry.
				delivered[idx] = true
				ended[idx] = true
				endedCount++
				group[idx].res <- muxRes{err: fmt.Errorf("mr: shuffle fetch %s from %s: %s", group[idx].name, addr, msg)}
				putFrameBuf(msg)
				continue
			}
			size := int64(sizePlus - 1)
			enc := byte(encodingRaw)
			if wc.caps&capCompress != 0 {
				b, err := wc.br.ReadByte()
				if err != nil {
					kill(unexpectedEOF(err))
					return
				}
				if b != encodingRaw && b != encodingSnappy {
					kill(fmt.Errorf("mr: mux session to %s: unknown encoding 0x%02x", addr, b))
					return
				}
				enc = b
			}
			st := newMuxStream(sess, idx, size, enc, group[idx].ctx)
			streams[idx] = st
			delivered[idx] = true
			if cerr := group[idx].ctx.Err(); cerr != nil {
				// The requester is already gone; deliver its error and
				// drain the stream via discard so the batch stays healthy.
				group[idx].res <- muxRes{err: cerr}
				st.Close()
			} else {
				st.stop = context.AfterFunc(group[idx].ctx, func() { st.Close() })
				group[idx].res <- muxRes{rc: st, size: size}
			}
		case muxData:
			idx, ok := readIdx()
			if !ok || streams[idx] == nil || ended[idx] {
				kill(fmt.Errorf("mr: mux session to %s: bad DATA", addr))
				return
			}
			st := streams[idx]
			n, err := binary.ReadUvarint(wc.br)
			if err != nil || n == 0 || n > maxMuxPayload {
				kill(fmt.Errorf("mr: mux session to %s: bad DATA length", addr))
				return
			}
			payload := getFrameBuf(int(n))
			if _, err := io.ReadFull(wc.br, payload); err != nil {
				putFrameBuf(payload)
				kill(unexpectedEOF(err))
				return
			}
			var raw []byte
			if st.enc == encodingSnappy {
				raw, err = codec.DecompressSnappyBlock(payload)
				putFrameBuf(payload)
				if err != nil {
					kill(fmt.Errorf("mr: mux session to %s: %w", addr, err))
					return
				}
			} else {
				// The frame buffer is pooled scratch; the stream queue
				// needs its own copy.
				raw = append([]byte(nil), payload...)
				putFrameBuf(payload)
			}
			// A body's wire bytes are what its encoding makes of it — the
			// payload, plus a Snappy block's length prefix — on this path as
			// on the sequential one; the mux envelope is not counted.
			wire := int64(n)
			if st.enc == encodingSnappy {
				wire += uvarintLen(n)
			}
			if err := st.push(raw, wire); err != nil {
				kill(err)
				return
			}
		case muxEnd:
			idx, ok := readIdx()
			if !ok || streams[idx] == nil || ended[idx] {
				kill(fmt.Errorf("mr: mux session to %s: bad END", addr))
				return
			}
			ended[idx] = true
			endedCount++
			if err := streams[idx].finish(); err != nil {
				kill(err)
				return
			}
		case muxAbort:
			idx, ok := readIdx()
			if !ok || streams[idx] == nil || ended[idx] {
				kill(fmt.Errorf("mr: mux session to %s: bad ABORT", addr))
				return
			}
			msg, err := readLenPrefixed(wc.br, maxErrFrame)
			if err != nil {
				kill(unexpectedEOF(err))
				return
			}
			ended[idx] = true
			endedCount++
			streams[idx].fail(fmt.Errorf("mr: mux fetch %s from %s aborted mid-body: %s: %w",
				group[idx].name, addr, msg, io.ErrUnexpectedEOF))
			putFrameBuf(msg)
		case muxDone:
			if endedCount != len(group) {
				kill(fmt.Errorf("mr: mux session to %s: DONE with %d of %d streams open",
					addr, len(group)-endedCount, len(group)))
				return
			}
			// Ack under the write mutex, then seal the session: no grant
			// may trail the ack, because the server stops reading after
			// it and the connection goes back to the pool.
			sess.wmu.Lock()
			ack := binary.AppendUvarint(nil, uint64(len(group)))
			ack = binary.AppendUvarint(ack, 0)
			_, werr := wc.conn.Write(ack)
			sess.finished = true
			sess.wmu.Unlock()
			// stop reports false when the session was abandoned meanwhile
			// and the connection is being closed under us.
			if stop() && werr == nil {
				m.pool.put(addr, wc)
			} else {
				wc.conn.Close()
			}
			return
		default:
			kill(fmt.Errorf("mr: mux session to %s: unknown frame 0x%02x", addr, t))
			return
		}
	}
}

// muxSession is the client side of one batch: the shared connection and
// the write gate that stops grants once the session is sealed.
type muxSession struct {
	wc     *wireConn
	window int64

	wmu      sync.Mutex
	finished bool
}

func (s *muxSession) write(p []byte) {
	s.wmu.Lock()
	if !s.finished {
		s.wc.conn.Write(p) // a write error surfaces on the demux read side
	}
	s.wmu.Unlock()
}

func (s *muxSession) grant(idx int, n int64) {
	buf := binary.AppendUvarint(nil, uint64(idx))
	buf = binary.AppendUvarint(buf, uint64(n))
	s.write(buf)
}

func (s *muxSession) finish() {
	s.wmu.Lock()
	s.finished = true
	s.wmu.Unlock()
}

// muxStream is one demuxed body: chunks queued by the session's demux
// loop, drained by the caller's Read. Consumption drives window grants;
// a stream abandoned early flips to discard mode — pre-granting the
// server its whole remainder — so one dead requester cannot stall the
// batch's other streams.
type muxStream struct {
	sess *muxSession
	idx  int
	size int64
	enc  byte
	ctx  context.Context
	stop func() bool

	mu        sync.Mutex
	cond      *sync.Cond
	chunks    [][]byte
	received  int64
	delivered int64
	granted   int64 // raw bytes granted beyond the initial window
	wire      int64
	done      bool
	discard   bool
	closed    bool
	err       error
}

func newMuxStream(sess *muxSession, idx int, size int64, enc byte, ctx context.Context) *muxStream {
	st := &muxStream{sess: sess, idx: idx, size: size, enc: enc, ctx: ctx}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// push queues one decoded chunk (demux side).
func (st *muxStream) push(raw []byte, wire int64) error {
	st.mu.Lock()
	if st.received+int64(len(raw)) > st.size {
		st.mu.Unlock()
		return fmt.Errorf("mr: mux stream %d overran its %d-byte body", st.idx, st.size)
	}
	st.received += int64(len(raw))
	st.wire += wire
	if !st.discard {
		st.chunks = append(st.chunks, raw)
	}
	st.mu.Unlock()
	st.cond.Signal()
	return nil
}

// finish marks the stream complete (END frame).
func (st *muxStream) finish() error {
	st.mu.Lock()
	if st.received != st.size {
		st.mu.Unlock()
		return fmt.Errorf("mr: mux stream %d ended at %d of %d bytes: %w",
			st.idx, st.received, st.size, io.ErrUnexpectedEOF)
	}
	st.done = true
	st.mu.Unlock()
	st.cond.Broadcast()
	return nil
}

// fail poisons an incomplete stream; a stream whose body fully arrived
// keeps it — its remaining chunks drain from memory without the
// connection.
func (st *muxStream) fail(err error) {
	st.mu.Lock()
	if !st.done && st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
	st.cond.Broadcast()
}

func (st *muxStream) Read(p []byte) (int, error) {
	st.mu.Lock()
	for {
		if st.closed {
			st.mu.Unlock()
			if cerr := st.ctx.Err(); cerr != nil {
				return 0, cerr
			}
			return 0, errors.New("mr: mux stream read after close")
		}
		if len(st.chunks) > 0 {
			break
		}
		if st.err != nil {
			err := st.err
			st.mu.Unlock()
			return 0, err
		}
		if st.done {
			st.mu.Unlock()
			return 0, io.EOF
		}
		st.cond.Wait()
	}
	c := st.chunks[0]
	n := copy(p, c)
	if n < len(c) {
		st.chunks[0] = c[n:]
	} else {
		st.chunks = st.chunks[1:]
	}
	st.delivered += int64(n)
	// Replenish the server's window in half-window steps once enough has
	// been consumed; a finished stream needs no more grants.
	var g int64
	if !st.done && st.delivered-st.granted >= st.sess.window/2 {
		g = st.delivered - st.granted
		st.granted = st.delivered
	}
	st.mu.Unlock()
	if g > 0 {
		st.sess.grant(st.idx, g)
	}
	return n, nil
}

// WireBytes reports the bytes the body occupied on the wire so far, as
// fetchReader.WireBytes counts them.
func (st *muxStream) WireBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.wire
}

func (st *muxStream) Close() error {
	if st.stop != nil {
		st.stop()
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	var g int64
	if !(st.err == nil && st.done && st.delivered == st.size) {
		// Abandoned mid-body: discard the rest and pre-grant the whole
		// remainder so the server can run the stream out.
		st.discard = true
		st.chunks = nil
		if !st.done && st.err == nil && st.size > st.granted {
			g = st.size - st.granted
			st.granted = st.size
		}
	}
	st.mu.Unlock()
	st.cond.Broadcast()
	if g > 0 {
		st.sess.grant(st.idx, g)
	}
	return nil
}
