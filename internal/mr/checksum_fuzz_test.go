package mr

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzSegmentFrames hammers the CRC32C frame reader with arbitrary
// bytes in both of its modes: the stripping reader and the pass-through
// verifier must either succeed (and agree byte-for-byte with a
// re-framed round trip) or fail with a typed error — ErrIntegrity for
// structural corruption — and never panic or silently accept a
// malformed stream.
func FuzzSegmentFrames(f *testing.F) {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		cw := newChecksumWriter(&buf)
		if _, err := cw.Write(payload); err != nil {
			f.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})                                                           // empty input: no terminator
	f.Add([]byte{0})                                                          // bare terminator: valid empty stream
	f.Add(frame([]byte("hello frame")))                                       // valid single frame
	f.Add(frame(bytes.Repeat([]byte{0xAB}, 4096)))                            // valid larger frame
	f.Add(frame([]byte("truncate me"))[:5])                                   // mid-frame cut
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // huge length prefix
	f.Add(append(frame([]byte("trail")), 'x'))                                // trailing garbage
	f.Add(overflowingFrameHeader)                                             // shift wraps to 0: not a terminator
	f.Add([]byte{0x80, 0x00})                                                 // terminator in two bytes: passed through as written

	f.Fuzz(func(t *testing.T, data []byte) {
		cr := newCRCReader(bytes.NewReader(data), false)
		payload, rerr := io.ReadAll(cr)
		cr.release()

		raw, verr := io.ReadAll(NewIntegrityVerifier(bytes.NewReader(data)))

		// The two parsers must agree on validity.
		if (rerr == nil) != (verr == nil) {
			t.Fatalf("parsers disagree: reader err %v, verifier err %v", rerr, verr)
		}
		if rerr != nil {
			// Structural failures must be the typed integrity error; the
			// only other legal error class is an underlying I/O failure,
			// which a bytes.Reader never produces.
			if !errors.Is(rerr, ErrIntegrity) {
				t.Fatalf("reader error is not ErrIntegrity: %v", rerr)
			}
			if !errors.Is(verr, ErrIntegrity) {
				t.Fatalf("verifier error is not ErrIntegrity: %v", verr)
			}
			return
		}
		// A valid stream: the verifier is pass-through, and round-tripping
		// the recovered payload through the writer must parse back to the
		// same payload (the framing can differ in block splits).
		if !bytes.Equal(raw, data) {
			t.Fatalf("verifier not pass-through: %d bytes out of %d in", len(raw), len(data))
		}
		cr2 := newCRCReader(bytes.NewReader(frame(payload)), false)
		payload2, err := io.ReadAll(cr2)
		cr2.release()
		if err != nil {
			t.Fatalf("re-framed payload does not parse: %v", err)
		}
		if !bytes.Equal(payload, payload2) {
			t.Fatalf("payload round trip mismatch: %d bytes, then %d", len(payload), len(payload2))
		}
	})
}
