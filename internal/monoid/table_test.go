package monoid_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bytesx"
	"repro/internal/monoid"
	"repro/internal/mr"
	"repro/internal/workloads/querysuggest"
	"repro/internal/workloads/wordcount"
)

// FuzzFoldTable checks the fold table against a reference model in both
// of its roles: arbitrary key bytes (empty keys, shared prefixes), enough
// keys to resize the index several times, EagerSH-style shared absorbs,
// emit order, the reduce role's key groups, ordered drain, charge and
// measure, spills in mid-group and the compaction of finalized keys, and
// tables released and taken again across the instances of one Combiner
// or Reducer.
//
// An op is one byte b. Its low three bits pick the operation, and b>>3
// in decimal is the value absorbed:
//
//	0-2 Absorb          3 AbsorbShared    4 Begin
//	5   FinalizeMin     6 Measure         7 Emit (a spill)
//
// Absorb, AbsorbShared and Begin read a key-length byte and up to that
// many key bytes next. AbsorbShared's other keys are the key's first
// half, the key with a zero byte appended, and b>>3 keys that extend it
// by one byte each. Begin first finalizes every key below its key, as
// the fold reducer does; a key below the current group's is appended to
// it, so that groups ascend and nothing is absorbed below the group.
// Charge is checked after every op.
func FuzzFoldTable(f *testing.F) {
	f.Add([]byte("\x10\x01a\x18\x02ab\x2b\x00\x20\x03abc"), uint8(2))
	f.Add([]byte("\xfb\x04keys\xeb\x04kez\x00\x00"), uint8(3))
	f.Add([]byte("\xc3\x02\x00\x00\xc3\x00\xc3\x01\x01"), uint8(1))
	f.Add([]byte("\x08\x01b\x0c\x01a\x18\x01a\x1b\x02aa\x06\x05\x0c\x02ab\x10\x01c\x07\x10\x01d\x0c\x01c\x05\x05"), uint8(1))
	// Finalizes long keys one at a time below a short key that stays:
	// dead key bytes outweigh live ones, and the table compacts.
	f.Add([]byte("\x08\x01~\x08\x0aaaaaaaaaa1\x05\x08\x0aaaaaaaaaa2\x05\x08\x0aaaaaaaaaa3\x05\x0c\x01b\x08\x01c\x05\x06"), uint8(3))
	newCombiner := monoid.Combiner(wordcount.Sum{})
	newReducer := monoid.Reducer(wordcount.Sum{}, finalTotal)
	f.Fuzz(func(t *testing.T, data []byte, rounds uint8) {
		for round := 0; round <= int(rounds%4); round++ {
			m := &tableModel{t: t, table: newCombiner().(monoid.Folder).FoldTable()}
			if round%2 == 1 {
				m.table, m.final = newReducer().(monoid.Folder).FoldTable(), true
			}
			// Each table is filled and spilled, then filled again and
			// drained in key order, before release.
			m.apply(data)
			m.emit()
			m.apply(data)
			m.drain()
			if got := emitAll(t, m.table); len(got) != 0 {
				t.Fatalf("a drained table emitted %d states", len(got))
			}
			m.table.Release()
		}
	})
}

// finalTotal is the final FuzzFoldTable's Reducer renders through.
func finalTotal(key []byte, n uint64, out mr.Emitter) error {
	return out.Emit(key, []byte("total "+strconv.FormatUint(n, 10)))
}

// tableModel is the reference FuzzFoldTable holds a table to: every key
// holding a state, with its sum and its charge under the charge rule.
type tableModel struct {
	t      *testing.T
	table  monoid.FoldTable
	final  bool // FinalizeMin renders through finalTotal
	states map[string]*modelState
	group  []byte // the current group's key
	local  bool   // the group's state is Begin's local one
}

type modelState struct {
	sum    uint64
	charge int
	dirty  bool
}

// apply decodes data into table operations (see FuzzFoldTable),
// applying each to the table and to the model.
func (m *tableModel) apply(data []byte) {
	if m.states == nil {
		m.states = make(map[string]*modelState)
	}
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		op, v := b&7, uint64(b>>3)
		var key []byte
		if op <= 4 {
			if len(data) > 0 {
				n := min(int(data[0]), len(data)-1)
				key, data = data[1:1+n], data[1+n:]
			}
			key = m.clamp(key)
		}
		value := []byte(strconv.FormatUint(v, 10))
		switch op {
		case 0, 1, 2:
			if err := m.table.Absorb(key, value); err != nil {
				m.t.Fatal(err)
			}
			m.absorb(key, v, len(value))
		case 3:
			others := [][]byte{m.clamp(key[:len(key)/2]), append(bytes.Clone(key), 0)}
			for i := 0; i < int(v); i++ {
				others = append(others, append(bytes.Clone(key), byte(i)))
			}
			if err := m.table.AbsorbShared(key, others, value); err != nil {
				m.t.Fatal(err)
			}
			m.absorb(key, v, len(value))
			for _, k := range others {
				m.absorb(k, v, len(value))
			}
		case 4:
			m.finalizeBelow(key)
			m.table.Begin(key)
			m.group = bytes.Clone(key)
			if _, held := m.states[string(key)]; !held {
				m.states[string(key)] = &modelState{}
				m.local = true
			}
		case 5:
			if len(m.states) > 0 {
				m.finalizeMin(m.minKey())
			}
		case 6:
			n, err := m.table.Measure()
			if err != nil {
				m.t.Fatal(err)
			}
			for k, s := range m.states {
				if s.dirty {
					s.charge, s.dirty = len(k)+len(strconv.FormatUint(s.sum, 10)), false
				}
			}
			if want := m.charge(); n != want {
				m.t.Fatalf("Measure = %d, model %d", n, want)
			}
		case 7:
			m.emit()
		}
		if got, want := m.table.Charge(), m.charge(); got != want {
			m.t.Fatalf("after op %#x: Charge = %d, model %d", b, got, want)
		}
	}
}

// clamp returns key, or key appended to the group's when it sorts below
// that.
func (m *tableModel) clamp(key []byte) []byte {
	if bytes.Compare(key, m.group) < 0 {
		return append(bytes.Clone(m.group), key...)
	}
	return key
}

// absorb adds v, whose encoding is n bytes, to key's state in the model.
func (m *tableModel) absorb(key []byte, v uint64, n int) {
	s, ok := m.states[string(key)]
	if !ok {
		s = &modelState{charge: len(key)}
		m.states[string(key)] = s
	}
	s.sum += v
	s.charge += n
	s.dirty = true
}

func (m *tableModel) charge() int {
	c := 0
	for _, s := range m.states {
		c += s.charge
	}
	return c
}

// sortedKeys is the model's keys in ascending order.
func (m *tableModel) sortedKeys() []string {
	keys := make([]string, 0, len(m.states))
	for k := range m.states {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// minKey is the model's smallest key.
func (m *tableModel) minKey() string {
	first := true
	var min string
	for k := range m.states {
		if first || k < min {
			min, first = k, false
		}
	}
	return min
}

// finalizeMin finalizes the table's smallest key, checking it against
// want, the model's, and its rendered state against the model.
func (m *tableModel) finalizeMin(want string) {
	if min, ok := m.table.Min(); !ok || string(min) != want {
		m.t.Fatalf("Min = %q, %v; model's smallest key is %q", min, ok, want)
	}
	var got []mr.Record
	if err := m.table.FinalizeMin(mr.EmitterFunc(func(k, v []byte) error {
		got = append(got, mr.Record{Key: bytes.Clone(k), Value: bytes.Clone(v)})
		return nil
	})); err != nil {
		m.t.Fatal(err)
	}
	value := strconv.FormatUint(m.states[want].sum, 10)
	if m.final {
		value = "total " + value
	}
	if len(got) != 1 || string(got[0].Key) != want || string(got[0].Value) != value {
		m.t.Fatalf("FinalizeMin rendered %q, model %q=%q", got, want, value)
	}
	delete(m.states, want)
	if want == string(m.group) {
		m.local = false
	}
}

// finalizeBelow finalizes every key below key.
func (m *tableModel) finalizeBelow(key []byte) {
	for _, k := range m.sortedKeys() {
		if k >= string(key) {
			return
		}
		m.finalizeMin(k)
	}
}

// drain finalizes every key, after which Min must report none.
func (m *tableModel) drain() {
	for _, k := range m.sortedKeys() {
		m.finalizeMin(k)
	}
	if min, ok := m.table.Min(); ok {
		m.t.Fatalf("Min = %q in a drained table", min)
	}
}

// emit empties the table through Emit, checking every state and the
// order against the model. The local state stays, at the identity.
func (m *tableModel) emit() {
	got := emitAll(m.t, m.table)
	want := m.sortedKeys()
	if len(got) != len(want) {
		m.t.Fatalf("emitted %d states, model has %d", len(got), len(want))
	}
	for i, r := range got {
		s := m.states[want[i]]
		if string(r.Key) != want[i] || string(r.Value) != strconv.FormatUint(s.sum, 10) {
			m.t.Fatalf("emitted %q=%q at %d, model %q=%d", r.Key, r.Value, i, want[i], s.sum)
		}
	}
	clear(m.states)
	if m.local {
		m.states[string(m.group)] = &modelState{}
	}
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
	if !bytes.Equal(kept, bytes.Repeat([]byte{bytesx.PoisonByte}, len("kept"))) {
		t.Fatalf("key view after Release reads %q, want poison", kept)
	}
}

// TestFoldTableCompactsFinalizedKeys finalizes 100 000 distinct keys one
// at a time below a key that stays, so the table never empties: its key
// arena must stay within a fixed multiple of the live keys' bytes, and
// a Min view held across the compaction that gives an arena back must
// read poison in a test binary.
func TestFoldTableCompactsFinalizedKeys(t *testing.T) {
	table := monoid.Reducer(wordcount.Sum{}, nil)().(monoid.Folder).FoldTable()
	defer table.Release()
	const stays = "~stays"
	discard := mr.EmitterFunc(func(_, _ []byte) error { return nil })
	if err := table.Absorb([]byte(stays), []byte("1")); err != nil {
		t.Fatal(err)
	}
	for i := range 100000 {
		key := fmt.Appendf(nil, "k%07d", i)
		if err := table.Absorb(key, []byte("1")); err != nil {
			t.Fatal(err)
		}
		if live := len(stays) + len(key); monoid.ArenaCap(table) > 16*live {
			t.Fatalf("after %d finalized keys the arena holds %d bytes for %d live", i, monoid.ArenaCap(table), live)
		}
		min, _ := table.Min()
		if err := table.FinalizeMin(discard); err != nil {
			t.Fatal(err)
		}
		// The first finalized key outweighs the one that stays.
		if i == 0 && !bytes.Equal(min, bytes.Repeat([]byte{bytesx.PoisonByte}, len(key))) {
			t.Errorf("Min view across a compaction reads %q, want poison", min)
		}
	}
	if min, _ := table.Min(); string(min) != stays {
		t.Fatalf("Min = %q, want %q", min, stays)
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
	table := monoid.Reducer(wordcount.Sum{}, final)().(monoid.Folder).FoldTable()
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
func (m countsByEmit) Emit(key []byte, s querysuggest.QueryCounts, out mr.Emitter) error {
	return m.c.Emit(key, s, out)
}
func (countsByEmit) CommutativeMonoid() {}

// TestKeyTableMeasuresThroughSize: a key table over a Sizer charges
// exactly what one measuring through Emit does, after every batch of
// absorbs, so a spill decision does not depend on which path measured.
func TestKeyTableMeasuresThroughSize(t *testing.T) {
	newTable := func(m monoid.Monoid[querysuggest.QueryCounts]) monoid.FoldTable {
		return monoid.Reducer(m, nil)().(monoid.Folder).FoldTable()
	}
	sized, emitted := newTable(querysuggest.Counts{}), newTable(countsByEmit{})
	r := rand.New(rand.NewSource(5))
	queries := []string{"go", "goat", "gopher", "golang", "", "gold"}
	for batch := 0; batch < 50; batch++ {
		for i := r.Intn(20); i >= 0; i-- {
			q := queries[r.Intn(len(queries))]
			key := q[:r.Intn(len(q)+1)]
			value := querysuggest.EncodeValue(uint64(r.Intn(300)), []byte(q))
			for _, table := range []monoid.FoldTable{sized, emitted} {
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
