package chaos

import (
	"net"
	"time"
)

// WrapListener interposes the schedule on a shuffle data-plane
// listener: accepted connections may be dropped at birth (a transient
// partition — the fetcher redials and usually lands on a healthy
// decision), and served payload writes may stall, truncate
// mid-segment, or have one bit flipped. Only writes of at least
// corruptThreshold bytes are eligible for payload faults, so the wire
// protocol's small header frames always survive — corruption lands on
// segment bytes, which the CRC32C framing (and nothing else) must
// catch. The wrapper never fails Accept itself: a listener error would
// stop the segment server for good, which is a bigger hammer than any
// real network fault.
func (s *Schedule) WrapListener(ln net.Listener) net.Listener {
	return &chaosListener{Listener: ln, s: s}
}

type chaosListener struct {
	net.Listener
	s *Schedule
}

// Accept implements net.Listener.
func (l *chaosListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.s.decide("net", "connDrop", l.s.prof.ConnDrop) {
		// Close immediately: the peer sees a reset/EOF, classified as a
		// transient fetch failure. Still hand the dead conn to the server;
		// its handler fails the first frame read and moves on.
		conn.Close()
		return conn, nil
	}
	return &chaosConn{Conn: conn, s: l.s}, nil
}

type chaosConn struct {
	net.Conn
	s *Schedule
}

// Write implements net.Conn with payload-write fault injection.
func (c *chaosConn) Write(p []byte) (int, error) {
	s := c.s
	if len(p) < corruptThreshold {
		return c.Conn.Write(p)
	}
	if s.decide("net", "stall", s.prof.Stall) {
		time.Sleep(stallFor)
	}
	if s.decide("net", "truncate", s.prof.Truncate) {
		n, err := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		if err == nil {
			err = net.ErrClosed
		}
		return n, err
	}
	if s.decide("net", "bitFlip", s.prof.BitFlip) {
		tampered := append([]byte(nil), p...)
		tampered[len(tampered)/2] ^= 0x10
		return c.Conn.Write(tampered)
	}
	return c.Conn.Write(p)
}
