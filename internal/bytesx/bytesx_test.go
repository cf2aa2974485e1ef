package bytesx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for _, v := range cases {
		buf := AppendUvarint(nil, v)
		if got := UvarintLen(v); got != len(buf) {
			t.Errorf("UvarintLen(%d) = %d, encoded %d bytes", v, got, len(buf))
		}
		got, n, err := Uvarint(buf)
		if err != nil || n != len(buf) || got != v {
			t.Errorf("Uvarint(%d): got %d n=%d err=%v", v, got, n, err)
		}
	}
}

func TestUvarintCorrupt(t *testing.T) {
	if _, _, err := Uvarint(nil); err == nil {
		t.Error("Uvarint(nil) should fail")
	}
	if _, _, err := Uvarint([]byte{0x80}); err == nil {
		t.Error("Uvarint(truncated) should fail")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	cases := []struct{ k, v []byte }{
		{nil, nil},
		{[]byte("k"), nil},
		{nil, []byte("v")},
		{[]byte("key"), []byte("value")},
		{bytes.Repeat([]byte{0xff}, 1000), bytes.Repeat([]byte{0}, 5000)},
	}
	for _, c := range cases {
		buf := AppendRecord(nil, c.k, c.v)
		if got := RecordLen(c.k, c.v); got != len(buf) {
			t.Errorf("RecordLen = %d, encoded %d", got, len(buf))
		}
		k, v, n, err := DecodeRecord(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("DecodeRecord: n=%d err=%v", n, err)
		}
		if !bytes.Equal(k, c.k) || !bytes.Equal(v, c.v) {
			t.Errorf("round trip mismatch: %q/%q != %q/%q", k, v, c.k, c.v)
		}
	}
}

func TestRecordCorrupt(t *testing.T) {
	buf := AppendRecord(nil, []byte("key"), []byte("value"))
	for i := 0; i < len(buf)-1; i++ {
		if _, _, _, err := DecodeRecord(buf[:i]); err == nil && i > 0 {
			// Prefixes that happen to decode as a shorter valid record are
			// acceptable only if they consume exactly i bytes.
			_, _, n, _ := DecodeRecord(buf[:i])
			if n != i {
				t.Errorf("truncated record at %d decoded inconsistently", i)
			}
		}
	}
	if _, _, _, err := DecodeRecord([]byte{5, 'a'}); err == nil {
		t.Error("short key should fail")
	}
}

func TestRecordPropertyRoundTrip(t *testing.T) {
	f := func(k, v []byte) bool {
		buf := AppendRecord(nil, k, v)
		gk, gv, n, err := DecodeRecord(buf)
		return err == nil && n == len(buf) && bytes.Equal(gk, k) && bytes.Equal(gv, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarintPropertyRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		buf := AppendUvarint(nil, v)
		got, n, err := Uvarint(buf)
		return err == nil && n == len(buf) && n == UvarintLen(v) && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type rec struct{ k, v []byte }
	var recs []rec
	var buf bytes.Buffer
	w := NewWriter(&buf)
	add := func(kn, vn int) {
		k := make([]byte, kn)
		v := make([]byte, vn)
		rng.Read(k)
		rng.Read(v)
		recs = append(recs, rec{k, v})
		if err := w.WriteRecord(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		add(rng.Intn(50), rng.Intn(200))
	}
	// Records that straddle the 64 KiB read buffer's end, and records
	// larger than the whole buffer, in key, value or both.
	for _, size := range [][2]int{{40 << 10, 10}, {10, 40 << 10}, {70 << 10, 5}, {5, 200 << 10}, {65 << 10, 65 << 10}, {3, 4}} {
		add(size[0], size[1])
		add(rng.Intn(50), rng.Intn(200))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != int64(len(recs)) {
		t.Errorf("Records() = %d", w.Records())
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Errorf("Bytes() = %d, buffer has %d", w.Bytes(), buf.Len())
	}
	// A source that yields a few bytes per read leaves records partly
	// buffered far more often than a whole one does.
	for _, src := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", bytes.NewReader(buf.Bytes())},
		{"half-reads", iotest.HalfReader(bytes.NewReader(buf.Bytes()))},
		{"byte-reads", iotest.OneByteReader(bytes.NewReader(buf.Bytes()))},
	} {
		r := NewReader(src.r)
		for i, want := range recs {
			k, v, err := r.ReadRecord()
			if err != nil {
				t.Fatalf("%s: record %d: %v", src.name, i, err)
			}
			if !bytes.Equal(k, want.k) || !bytes.Equal(v, want.v) {
				t.Fatalf("%s: record %d mismatch", src.name, i)
			}
			if cap(k) != len(k) || cap(v) != len(v) {
				t.Fatalf("%s: record %d: views not capacity-clipped", src.name, i)
			}
		}
		if _, _, err := r.ReadRecord(); err != io.EOF {
			t.Errorf("%s: expected EOF, got %v", src.name, err)
		}
	}
}

// TestStreamTruncated: a stream that ends inside a record, or whose
// length prefix claims more bytes than follow — up to lengths no buffer
// could hold, or that overflow an int — fails with ErrCorrupt wrapping
// io.ErrUnexpectedEOF instead of allocating the claimed length.
func TestStreamTruncated(t *testing.T) {
	record := AppendRecord(nil, []byte("hello"), []byte("world"))
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"in-value", record[:len(record)-2]},
		{"before-value-length", record[:6]},
		{"key-length-1TiB", append(binary.AppendUvarint(nil, 1<<40), "abc"...)},
		{"key-length-2^63", append(binary.AppendUvarint(nil, 1<<63), "abc"...)},
		{"value-length-1TiB", append(append(AppendBytes(nil, []byte("k")), binary.AppendUvarint(nil, 1<<40)...), "abc"...)},
	} {
		r := NewReader(bytes.NewReader(c.data))
		_, _, err := r.ReadRecord()
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: expected ErrCorrupt, got %v", c.name, err)
		}
		// The underlying cause must stay matchable too.
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: underlying cause lost: %v", c.name, err)
		}
	}
}

// TestReadRecordPoisonsPreviousViews: in a test binary the record one
// ReadRecord returned no longer reads as itself after the next call —
// a view into the read buffer reads poison, a copy is poisoned or
// reused — so a caller that keeps it past its window cannot go
// unnoticed.
func TestReadRecordPoisonsPreviousViews(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	big := bytes.Repeat([]byte("v"), 100<<10) // larger than the buffer: copied
	recs := [][2][]byte{{[]byte("k0"), []byte("small")}, {[]byte("k1"), big}, {[]byte("k2"), []byte("after")}, {[]byte("k3"), []byte("last")}}
	for _, rec := range recs {
		if err := w.WriteRecord(rec[0], rec[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var prevK, prevV []byte
	for i := range recs {
		k, v, err := r.ReadRecord()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (bytes.Equal(prevK, recs[i-1][0]) || bytes.Equal(prevV, recs[i-1][1])) {
			t.Errorf("record %d still reads as itself after the next call: %q", i-1, prevK)
		}
		prevK, prevV = k, v
	}
}

func TestClone(t *testing.T) {
	b := []byte("abc")
	c := Clone(b)
	b[0] = 'x'
	if string(c) != "abc" {
		t.Error("Clone should not alias")
	}
	if Clone(nil) == nil {
		t.Error("Clone(nil) should be non-nil")
	}
}

func TestBytesCompare(t *testing.T) {
	if Bytes([]byte("a"), []byte("b")) >= 0 {
		t.Error("a should sort before b")
	}
	if Bytes([]byte("ab"), []byte("a")) <= 0 {
		t.Error("ab should sort after a")
	}
	if Bytes(nil, nil) != 0 {
		t.Error("nil == nil")
	}
}

func TestUvarintRejectsNonCanonical(t *testing.T) {
	// 0x82 0x00 is an overlong encoding of 2; the framing layer must
	// reject it so decode∘encode stays the identity.
	if _, _, err := Uvarint([]byte{0x82, 0x00}); err == nil {
		t.Error("overlong varint accepted")
	}
	if _, _, err := Uvarint([]byte{0x80, 0x00}); err == nil {
		t.Error("overlong zero accepted")
	}
	if v, n, err := Uvarint([]byte{0x02}); err != nil || v != 2 || n != 1 {
		t.Errorf("canonical decode broken: %d %d %v", v, n, err)
	}
}

// BenchmarkReadRecord reads a stream of sort-shaped records (145-byte
// keys, empty values) and of word-count-shaped ones (6-byte keys, 1-byte
// values), one record per op, with view poisoning off as outside tests.
func BenchmarkReadRecord(b *testing.B) {
	for _, bc := range []struct {
		name         string
		keyLen, vLen int
	}{{"lines", 145, 0}, {"words", 6, 1}} {
		b.Run(bc.name, func(b *testing.B) {
			defer func(p bool) { poisoning = p }(poisoning)
			poisoning = false
			const records = 10_000
			rng := rand.New(rand.NewSource(1))
			var buf bytes.Buffer
			w := NewWriter(&buf)
			k, v := make([]byte, bc.keyLen), make([]byte, bc.vLen)
			for i := 0; i < records; i++ {
				rng.Read(k)
				if err := w.WriteRecord(k, v); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			src := bytes.NewReader(data)
			r := NewReader(src)
			b.SetBytes(int64(len(data) / records))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%records == 0 {
					src.Reset(data)
					r.Reset(src)
				}
				if _, _, err := r.ReadRecord(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
