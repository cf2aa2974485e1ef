package monoid_test

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/monoid"
	"repro/internal/mr"
	"repro/internal/workloads/querysuggest"
	"repro/internal/workloads/wordcount"
)

// FuzzFoldTable checks the typed fold table against a map[string]
// reference: arbitrary key bytes (empty keys, shared prefixes), enough
// keys to resize the index several times, EagerSH-style shared absorbs,
// emit order, and tables released and taken again across the instances
// of one Combiner. The key tables of the Reducer derived from the same
// monoid take the same operations.
//
// An op is one byte b, then a key-length byte and up to that many key
// bytes. b's low bit picks Absorb or AbsorbShared; the value absorbed
// is b>>1 in decimal; for AbsorbShared the other keys are the key's
// first half, the key with a zero byte appended, and b>>1 keys that
// extend it by one byte each.
func FuzzFoldTable(f *testing.F) {
	f.Add([]byte("\x02\x01a\x03\x02ab\x05\x00\x04\x03abc"), uint8(2))
	f.Add([]byte("\xff\x04keys\xfd\x04kez\x00\x00"), uint8(3))
	f.Add([]byte("\xc1\x02\x00\x00\xc1\x00\xc1\x01\x01"), uint8(1))
	newCombiner := monoid.Combiner(wordcount.Sum{})
	newReducer := monoid.Reducer(wordcount.Sum{}, nil)
	f.Fuzz(func(t *testing.T, data []byte, rounds uint8) {
		for round := 0; round <= int(rounds%4); round++ {
			newTable := newCombiner
			if round%2 == 1 {
				newTable = newReducer
			}
			table := newTable().(monoid.Folder).FoldTable()
			// Each table is filled, emitted and filled again before release.
			for fill := 0; fill < 2; fill++ {
				want := applyOps(t, table, data)
				got := emitAll(t, table)
				if len(got) != len(want) {
					t.Fatalf("emitted %d states, reference has %d", len(got), len(want))
				}
				for i, r := range got {
					if i > 0 && bytes.Compare(got[i-1].Key, r.Key) >= 0 {
						t.Fatalf("emit order: %q then %q", got[i-1].Key, r.Key)
					}
					if n, ok := want[string(r.Key)]; !ok || string(r.Value) != strconv.FormatUint(n, 10) {
						t.Fatalf("key %q: emitted %q, reference %d (present %v)", r.Key, r.Value, n, ok)
					}
				}
			}
			if got := emitAll(t, table); len(got) != 0 {
				t.Fatalf("Emit left %d states behind", len(got))
			}
			table.Release()
		}
	})
}

// applyOps decodes data into table operations (see FuzzFoldTable),
// applying each to table and to the returned reference.
func applyOps(t *testing.T, table monoid.FoldTable, data []byte) map[string]uint64 {
	want := make(map[string]uint64)
	for len(data) >= 2 {
		b, n := data[0], int(data[1])
		data = data[2:]
		n = min(n, len(data))
		key := data[:n]
		data = data[n:]
		v := uint64(b >> 1)
		value := []byte(strconv.FormatUint(v, 10))
		if b&1 == 0 {
			if err := table.Absorb(key, value); err != nil {
				t.Fatal(err)
			}
			want[string(key)] += v
			continue
		}
		others := [][]byte{key[:len(key)/2], append(bytes.Clone(key), 0)}
		for i := 0; i < int(b>>1); i++ {
			others = append(others, append(bytes.Clone(key), byte(i)))
		}
		if err := table.AbsorbShared(key, others, value); err != nil {
			t.Fatal(err)
		}
		want[string(key)] += v
		for _, k := range others {
			want[string(k)] += v
		}
	}
	return want
}

// emitAll empties table into copied records.
func emitAll(t *testing.T, table monoid.FoldTable) []mr.Record {
	var got []mr.Record
	err := table.Emit(mr.EmitterFunc(func(k, v []byte) error {
		got = append(got, mr.Record{Key: bytes.Clone(k), Value: bytes.Clone(v)})
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFoldTablePoisonsOnRelease holds a key view past Emit and Release:
// in a test binary it must read poison, not the next owner's keys.
func TestFoldTablePoisonsOnRelease(t *testing.T) {
	table := monoid.Combiner(wordcount.Sum{})().(monoid.Folder).FoldTable()
	if err := table.Absorb([]byte("kept"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	var kept []byte
	if err := table.Emit(mr.EmitterFunc(func(k, _ []byte) error { kept = k; return nil })); err != nil {
		t.Fatal(err)
	}
	table.Release()
	if !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, len("kept"))) {
		t.Fatalf("key view after Release reads %q, want poison", kept)
	}
}

// TestKeyTableFinalizesInKeyOrder: a reducer's key table finalizes its
// states smallest key first, through final; the state Begin keeps
// outside the table counts as the smallest; Charge follows what is
// absorbed and finalized, and Measure replaces it by the encoded size.
func TestKeyTableFinalizesInKeyOrder(t *testing.T) {
	final := func(key []byte, n uint64, out mr.Emitter) error {
		return out.Emit(key, []byte("total "+strconv.FormatUint(n, 10)))
	}
	table := monoid.Reducer(wordcount.Sum{}, final)().(monoid.Folder).FoldTable().(monoid.KeyTable)
	absorb := func(key, value string) {
		t.Helper()
		if err := table.Absorb([]byte(key), []byte(value)); err != nil {
			t.Fatal(err)
		}
	}
	absorb("banana", "10")
	absorb("apricot", "7")
	absorb("apple", "5")
	if got := table.Charge(); got != len("banana10apricot7apple5") {
		t.Fatalf("Charge = %d after three keys", got)
	}
	table.Begin([]byte("apple"))    // held: no local state
	absorb("apple", "1")            // into the table's apple
	table.Begin([]byte("aardvark")) // not held: a local state
	absorb("aardvark", "2")
	absorb("aardvark", "3")
	if min, _ := table.Min(); string(min) != "aardvark" {
		t.Fatalf("Min = %q, want the local key", min)
	}
	if n, err := table.Measure(); err != nil || n != len("aardvark5apple6apricot7banana10") {
		t.Fatalf("Measure = %d, %v", n, err)
	}
	var got []string
	out := mr.EmitterFunc(func(k, v []byte) error {
		got = append(got, string(k)+"="+string(v))
		return nil
	})
	for {
		if _, ok := table.Min(); !ok {
			break
		}
		if err := table.FinalizeMin(out); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"aardvark=total 5", "apple=total 6", "apricot=total 7", "banana=total 10"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("finalized %v, want %v", got, want)
	}
	if c := table.Charge(); c != 0 {
		t.Errorf("Charge = %d with every state finalized", c)
	}
}

// countsByEmit is querysuggest.Counts without its Size, so a key table
// over it measures its states through Emit.
type countsByEmit struct{ c querysuggest.Counts }

func (m countsByEmit) Identity() querysuggest.QueryCounts { return m.c.Identity() }
func (m countsByEmit) Absorb(s querysuggest.QueryCounts, v []byte) (querysuggest.QueryCounts, error) {
	return m.c.Absorb(s, v)
}
func (m countsByEmit) Merge(a, b querysuggest.QueryCounts) (querysuggest.QueryCounts, error) {
	return m.c.Merge(a, b)
}
func (m countsByEmit) Emit(key []byte, s querysuggest.QueryCounts, out mr.Emitter) error {
	return m.c.Emit(key, s, out)
}
func (countsByEmit) CommutativeMonoid() {}

// TestKeyTableMeasuresThroughSize: a key table over a Sizer charges
// exactly what one measuring through Emit does, after every batch of
// absorbs, so a spill decision does not depend on which path measured.
func TestKeyTableMeasuresThroughSize(t *testing.T) {
	newTable := func(m monoid.Monoid[querysuggest.QueryCounts]) monoid.KeyTable {
		return monoid.Reducer(m, nil)().(monoid.Folder).FoldTable().(monoid.KeyTable)
	}
	sized, emitted := newTable(querysuggest.Counts{}), newTable(countsByEmit{})
	r := rand.New(rand.NewSource(5))
	queries := []string{"go", "goat", "gopher", "golang", "", "gold"}
	for batch := 0; batch < 50; batch++ {
		for i := r.Intn(20); i >= 0; i-- {
			q := queries[r.Intn(len(queries))]
			key := q[:r.Intn(len(q)+1)]
			value := querysuggest.EncodeValue(uint64(r.Intn(300)), []byte(q))
			for _, table := range []monoid.KeyTable{sized, emitted} {
				if err := table.Absorb([]byte(key), value); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, err := emitted.Measure()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sized.Measure(); err != nil || got != want {
			t.Fatalf("batch %d: Measure through Size = %d, %v; through Emit = %d", batch, got, err, want)
		}
	}
}
