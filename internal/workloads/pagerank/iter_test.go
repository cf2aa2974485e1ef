package pagerank_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/monoid"
	"repro/internal/mr"
	"repro/internal/workloads/pagerank"
)

// rankRecordsClose compares RankFold emissions with a float epsilon:
// reassociating contribution sums legitimately perturbs low bits, so
// contribution records compare numerically while struct records (which
// absorbing moves, never recomputes) stay byte-exact.
func rankRecordsClose(a, b []mr.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) {
			return false
		}
		av, bv := a[i].Value, b[i].Value
		if len(av) == 9 && len(bv) == 9 && av[0] == 'R' && bv[0] == 'R' {
			x := math.Float64frombits(binary.BigEndian.Uint64(av[1:]))
			y := math.Float64frombits(binary.BigEndian.Uint64(bv[1:]))
			if math.Abs(x-y) > 1e-12*math.Max(1, math.Abs(x)) {
				return false
			}
			continue
		}
		if !bytes.Equal(av, bv) {
			return false
		}
	}
	return true
}

// TestRankFoldLaws property-checks the rank stage's monoid. The
// generator respects the workload invariant that at most one struct
// record exists per key — and that all copies agree — because the
// struct is emitted by the single map task owning the node's input
// record. Contributions are random positive floats.
func TestRankFoldLaws(t *testing.T) {
	strct := pagerank.EncodeStruct(0.25, []int32{1, 2, 3})
	err := monoid.CheckLaws(pagerank.RankFold{}, monoid.LawConfig{
		Seed:   42,
		Trials: 200,
		Values: func(r *rand.Rand) [][]byte {
			n := 1 + r.Intn(4)
			vals := make([][]byte, 0, n+1)
			if r.Intn(2) == 0 {
				vals = append(vals, strct)
			}
			for i := 0; i < n; i++ {
				vals = append(vals, pagerank.EncodeContrib(r.Float64()+0.01))
			}
			return vals
		},
		Equal: rankRecordsClose,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// deltaRecordsClose compares DeltaSum emissions numerically.
func deltaRecordsClose(a, b []mr.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) {
			return false
		}
		x, err1 := pagerank.DecodeDelta(a[i].Value)
		y, err2 := pagerank.DecodeDelta(b[i].Value)
		if err1 != nil || err2 != nil || math.Abs(x-y) > 1e-12*math.Max(1, math.Abs(x)) {
			return false
		}
	}
	return true
}

// TestDeltaSumLaws property-checks the delta/norm stages' monoid.
func TestDeltaSumLaws(t *testing.T) {
	err := monoid.CheckLaws(pagerank.DeltaSum{}, monoid.LawConfig{
		Seed:   7,
		Trials: 200,
		Values: func(r *rand.Rand) [][]byte {
			n := 1 + r.Intn(5)
			vals := make([][]byte, n)
			for i := range vals {
				vals[i] = pagerank.EncodeDelta(r.Float64())
			}
			return vals
		},
		Equal: deltaRecordsClose,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStructPrevRoundTrip(t *testing.T) {
	adj := []int32{3, 1, 4, 1, 5}
	buf := pagerank.EncodeStructPrev(0.75, 0.5, adj)
	rank, prev, gotAdj, err := pagerank.DecodeStructPrev(buf)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 0.75 || prev != 0.5 {
		t.Fatalf("got (%g, %g), want (0.75, 0.5)", rank, prev)
	}
	if len(gotAdj) != len(adj) {
		t.Fatalf("adjacency %v, want %v", gotAdj, adj)
	}
	for i := range adj {
		if gotAdj[i] != adj[i] {
			t.Fatalf("adjacency %v, want %v", gotAdj, adj)
		}
	}
	// Empty adjacency (a dangling node) must round-trip too.
	if _, _, gotAdj, err = pagerank.DecodeStructPrev(pagerank.EncodeStructPrev(1, 2, nil)); err != nil || len(gotAdj) != 0 {
		t.Fatalf("empty adjacency round-trip: adj=%v err=%v", gotAdj, err)
	}
	if _, _, _, err := pagerank.DecodeStructPrev([]byte("x")); err == nil {
		t.Fatal("DecodeStructPrev accepted garbage")
	}
}

// TestDecodeRankBothEncodings: the rank stage's mapper reads
// iteration-0 'S' records and later iterations' 'P' records through
// one accessor.
func TestDecodeRankBothEncodings(t *testing.T) {
	adj := []int32{2, 7}
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"struct", pagerank.EncodeStruct(0.125, adj)},
		{"struct-prev", pagerank.EncodeStructPrev(0.125, 0.25, adj)},
	} {
		rank, gotAdj, err := pagerank.DecodeRank(tc.buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rank != 0.125 || len(gotAdj) != 2 || gotAdj[0] != 2 || gotAdj[1] != 7 {
			t.Fatalf("%s: got rank=%g adj=%v", tc.name, rank, gotAdj)
		}
		// A lying adjacency count and a truncated varint fail in both
		// encodings: the header is kept, the adjacency replaced.
		head := tc.buf[:len(tc.buf)-3]
		for _, bad := range [][]byte{
			{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}, // count 2^62
			{0x80, 0x80, 0x80, 0x80, 0x10},                         // count 2^32
			{0x80},                                                 // truncated count
			{2, 2, 0x87},                                           // truncated entry
		} {
			buf := append(append([]byte(nil), head...), bad...)
			if _, _, err := pagerank.DecodeRank(buf); err == nil {
				t.Errorf("%s: DecodeRank accepted %x", tc.name, buf)
			}
		}
	}
}

// FuzzDecodeRank feeds arbitrary record bodies to the rank job's input
// decoder under both encodings' tags. Decoding must never panic, and
// whatever it accepts must re-encode, in either encoding, to the same
// rank and adjacency.
func FuzzDecodeRank(f *testing.F) {
	f.Add(pagerank.EncodeStruct(0.125, []int32{2, 7})[1:])
	f.Add(pagerank.EncodeStructPrev(0.125, 0.25, []int32{3, 1, 4})[1:])
	f.Add(pagerank.EncodeStructPrev(1, 2, nil)[1:])
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x80\x80\x80\x80\x10"))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, tag := range []byte{'S', 'P'} {
			rank, adj, err := pagerank.DecodeRank(append([]byte{tag}, body...))
			if err != nil {
				continue
			}
			for _, buf := range [][]byte{pagerank.EncodeStruct(rank, adj), pagerank.EncodeStructPrev(rank, 0, adj)} {
				gotRank, gotAdj, err := pagerank.DecodeRank(buf)
				if err != nil {
					t.Fatalf("%c: re-encoded %x does not decode: %v", tag, buf, err)
				}
				if math.Float64bits(gotRank) != math.Float64bits(rank) || !slices.Equal(gotAdj, adj) {
					t.Fatalf("%c: decoded (%g, %v), re-encoded as (%g, %v)", tag, rank, adj, gotRank, gotAdj)
				}
			}
		}
	})
}

func TestDeltaRoundTrip(t *testing.T) {
	d, err := pagerank.DecodeDelta(pagerank.EncodeDelta(0.0625))
	if err != nil || d != 0.0625 {
		t.Fatalf("got (%g, %v)", d, err)
	}
	if _, err := pagerank.DecodeDelta([]byte("short")); err == nil {
		t.Fatal("DecodeDelta accepted a bad length")
	}
}

func TestIndexPartitioner(t *testing.T) {
	for i := 0; i < 8; i++ {
		if p := pagerank.IndexPartitioner.Partition(pagerank.DeltaKey(i), 4); p != i%4 {
			t.Fatalf("DeltaKey(%d) routed to partition %d, want %d", i, p, i%4)
		}
	}
}
