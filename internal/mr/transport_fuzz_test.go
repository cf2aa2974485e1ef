package mr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/iokit"
)

// FuzzReadLenPrefixed throws arbitrary byte streams at the wire
// protocol's frame reader. Whatever the input — truncated uvarints,
// oversized length prefixes, embedded garbage — the reader must return
// a frame or an error without panicking, and must never allocate past
// the declared cap even when a hostile prefix advertises gigabytes.
func FuzzReadLenPrefixed(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(binary.AppendUvarint(nil, 5))                           // length with no body
	f.Add(append(binary.AppendUvarint(nil, 3), 'a', 'b', 'c'))    // clean frame
	f.Add(append(binary.AppendUvarint(nil, 4), 'a', 'b'))         // truncated body
	f.Add(binary.AppendUvarint(nil, maxNameFrame+1))              // just over the cap
	f.Add(binary.AppendUvarint(nil, 1<<40))                       // hostile: 1 TiB claim
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // uvarint overflow territory
	f.Add([]byte{0x82, 0x00, 'a', 'b'})                           // length 2 in a two-byte header

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, max := range []uint64{0, 1, maxNameFrame, maxErrFrame} {
			buf, err := readLenPrefixed(bytes.NewReader(data), max)
			if err != nil {
				continue
			}
			if uint64(len(buf)) > max {
				t.Fatalf("frame of %d bytes exceeds declared cap %d", len(buf), max)
			}
			// A successful parse must be faithful: the frame is a prefix of
			// the input after its uvarint header (as long as the header was
			// written, which need not be the shortest encoding).
			_, hdr := binary.Uvarint(data)
			if !bytes.Equal(buf, data[hdr:hdr+len(buf)]) {
				t.Fatal("frame bytes do not match input body")
			}
		}
	})
}

// FuzzFrameRoundTrip drives full request/response exchanges with
// fuzzed segment names and payloads through an in-memory pipe,
// asserting the framing layer reproduces both sides byte-for-byte and
// rejects (rather than mangles) names over the frame limit.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("seg", []byte("payload"))
	f.Add("", []byte{})
	f.Add(strings.Repeat("n", maxNameFrame), []byte{0x00, 0xff})
	f.Add(strings.Repeat("n", maxNameFrame+1), []byte("too long"))
	f.Add("jobs/m0001/out.p0003", bytes.Repeat([]byte{0xab}, 4096))

	f.Fuzz(func(t *testing.T, name string, payload []byte) {
		// Request frame, built by the encoder fetchOnce uses and parsed by
		// the server's decoder.
		accept := byte(encodingRaw)
		if len(payload)%2 == 1 {
			accept = encodingSnappy
		}
		gotAccept, got, err := readRequest(bytes.NewReader(appendRequest(nil, accept, name)))
		if len(name) > maxNameFrame {
			if err == nil {
				t.Fatalf("name of %d bytes accepted past the %d cap", len(name), maxNameFrame)
			}
		} else {
			if err != nil {
				t.Fatalf("round-tripping %d-byte name: %v", len(name), err)
			}
			if got != name || gotAccept != accept {
				t.Fatal("request mangled in round trip")
			}
		}

		// Error frame: zero marker + uvarint(len(msg)) + msg, as writeError
		// emits it over a real conn — reproduced structurally here.
		msg := name
		if len(msg) > maxErrFrame {
			msg = msg[:maxErrFrame]
		}
		eframe := binary.AppendUvarint(nil, 0)
		eframe = binary.AppendUvarint(eframe, uint64(len(msg)))
		eframe = append(eframe, msg...)
		er := bytes.NewReader(eframe)
		marker, err := binary.ReadUvarint(er)
		if err != nil || marker != 0 {
			t.Fatalf("error marker: %d, %v", marker, err)
		}
		gotMsg, err := readLenPrefixed(er, maxErrFrame)
		if err != nil {
			t.Fatalf("error frame: %v", err)
		}
		if string(gotMsg) != msg {
			t.Fatal("error message mangled in round trip")
		}

		// Response header + raw body: uvarint(size+1) + enc + payload.
		resp := binary.AppendUvarint(nil, uint64(len(payload))+1)
		resp = append(resp, encodingRaw)
		resp = append(resp, payload...)
		rbr := bytes.NewReader(resp)
		sizePlus, err := binary.ReadUvarint(rbr)
		if err != nil || sizePlus == 0 {
			t.Fatalf("response header: %d, %v", sizePlus, err)
		}
		if enc, err := rbr.ReadByte(); err != nil || enc != encodingRaw {
			t.Fatalf("response encoding: 0x%02x, %v", enc, err)
		}
		body := make([]byte, sizePlus-1)
		if _, err := io.ReadFull(rbr, body); err != nil {
			t.Fatalf("response body: %v", err)
		}
		if !bytes.Equal(body, payload) {
			t.Fatal("payload mangled in round trip")
		}

		// Truncated response bodies must surface as an error, not a hang
		// or a silent short read, when framed through readLenPrefixed.
		if len(payload) > 0 {
			trunc := binary.AppendUvarint(nil, uint64(len(payload)))
			trunc = append(trunc, payload[:len(payload)-1]...)
			// io.ReadFull reports EOF when zero body bytes arrive and
			// ErrUnexpectedEOF when some do; either way it must be an error.
			if _, err := readLenPrefixed(bytes.NewReader(trunc), uint64(len(payload))); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				t.Fatalf("truncated frame: err = %v, want unexpected EOF", err)
			}
		}
	})
}

// fuzzConn presents a byte slice as the read side of a net.Conn and
// swallows writes, so server connection handlers can be driven with
// hostile input without a socket.
type fuzzConn struct{ r io.Reader }

func (c *fuzzConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *fuzzConn) Close() error                { return nil }
func (c *fuzzConn) LocalAddr() net.Addr         { return fuzzAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr        { return fuzzAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error { return nil }
func (c *fuzzConn) SetReadDeadline(t time.Time) error {
	return nil
}
func (c *fuzzConn) SetWriteDeadline(t time.Time) error {
	return nil
}

type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz" }

// FuzzServerConn feeds arbitrary byte streams — unknown accept bytes,
// mangled or oversized name lengths, truncated and pipelined requests —
// straight into the server's per-connection loop. The server must
// always return (EOF terminates every read path) and never panic.
func FuzzServerConn(f *testing.F) {
	raw := appendRequest(nil, encodingRaw, "seg")
	f.Add(raw)                                                       // raw request
	f.Add(appendRequest(nil, encodingSnappy, "seg"))                 // Snappy request
	f.Add(appendRequest(raw, encodingSnappy, "z"))                   // two pipelined requests
	f.Add(appendRequest(nil, encodingSnappy+1, "seg"))               // unknown accept byte
	f.Add(binary.AppendUvarint([]byte{encodingRaw}, maxNameFrame+1)) // oversized name length
	f.Add([]byte{})                                                  // empty input

	fs := iokit.NewMemFS()
	w, _ := fs.Create("seg")
	w.Write(bytes.Repeat([]byte("fuzz segment payload "), 200))
	w.Close()
	w, _ = fs.Create("z")
	w.Close()

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &SegmentServer{fs: fs}
		s.handleConn(&fuzzConn{r: bytes.NewReader(data)})
	})
}

// FuzzSnappyUnitReader decodes arbitrary bytes as a compressed body
// stream. However corrupt the unit framing or block contents, the
// reader must error out (or finish) without panicking and without
// yielding more raw bytes than the advertised body size.
func FuzzSnappyUnitReader(f *testing.F) {
	valid := binary.AppendUvarint(nil, 0)
	block := codec.AppendSnappyBlock(nil, bytes.Repeat([]byte("unit "), 100))
	valid = binary.AppendUvarint(valid[:0], uint64(len(block)))
	valid = append(valid, block...)
	f.Add(valid, uint32(500))
	f.Add(valid, uint32(10)) // stream owes fewer bytes than one unit holds
	f.Add([]byte{0x00}, uint32(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint32(64))
	f.Add([]byte(nil), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, size uint32) {
		remaining := int64(size % (1 << 20))
		d := &snappyUnitReader{br: bufio.NewReaderSize(bytes.NewReader(data), 64), remaining: remaining}
		n, err := io.Copy(io.Discard, d)
		if n > remaining {
			t.Fatalf("decoded %d raw bytes past the advertised %d", n, remaining)
		}
		if err == nil && n != remaining {
			t.Fatalf("clean EOF after %d of %d raw bytes", n, remaining)
		}
	})
}
