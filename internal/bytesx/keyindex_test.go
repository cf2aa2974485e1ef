package bytesx

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// FuzzKeyIndex checks KeyIndex against a reference — a map from each
// held key to its id, sorted for order — under raw byte order and under
// a reversed comparator. An op is one byte b; b&7 picks it:
//
//	0-3 Insert          4 Insert of a held key (a find)
//	5-6 PopMin          7 Sorted, and at b>>3 == 31 Reset
//
// An insert reads b>>3 key bytes next, each taken mod 4 so that keys
// share prefixes; a find takes the held key b>>3 names. After every op
// the index must hold exactly the reference's keys under their ids. A
// popped key's view must read poison. An insert that finds the arena
// full and dead key bytes outweighing live ones must compact it, and a
// view of a held key across the compaction must read poison.
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte("\x18\x00\x01\x02\x08\x01\x10\x02\x03\x05\x07\x05\x05"), false)
	// A short key stays while longer ones are popped below it (raw) or
	// above it (reversed): dead bytes outweigh live ones, and the next
	// insert compacts the arena.
	f.Add([]byte("\x08\x03\x50\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x05\x50\x01\x01\x01\x01\x01\x01\x01\x01\x01\x01\x05\x07"), false)
	f.Add([]byte("\x08\x00\x50\x03\x03\x03\x03\x03\x03\x03\x03\x03\x03\x05\x50\x02\x02\x02\x02\x02\x02\x02\x02\x02\x02\x05\x07"), true)
	f.Add([]byte("\x00\x08\x01\x10\x01\x01\xfb\x00\x08\x02\x05\x06\x05"), true)
	// Two keys past 8 bytes that tie on the prefix: the raw heap must
	// order them on the bytes after it.
	f.Add([]byte("\x50\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x50\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x05\x05"), false)
	f.Fuzz(func(t *testing.T, data []byte, reversed bool) {
		var cmp Compare
		if reversed {
			cmp = func(a, b []byte) int { return bytes.Compare(b, a) }
		}
		order := func(a, b []byte) int {
			if cmp != nil {
				return cmp(a, b)
			}
			return bytes.Compare(a, b)
		}
		var x KeyIndex
		x.Init(cmp)
		ref := map[string]int32{}
		held := func() []string {
			keys := make([]string, 0, len(ref))
			for k := range ref {
				keys = append(keys, k)
			}
			slices.SortFunc(keys, func(a, b string) int { return order([]byte(a), []byte(b)) })
			return keys
		}
		insert := func(key []byte) {
			ids := len(x.ents)
			full, outweighed := len(x.keys)+len(key) > cap(x.keys), 2*x.dead > len(x.keys)
			var view []byte
			for _, id := range ref {
				view = slices.Clip(x.Key(id))
				break
			}
			id, added, err := x.Insert(key)
			if err != nil {
				t.Fatal(err)
			}
			if added && full && outweighed {
				if x.dead != 0 {
					t.Fatalf("Insert(%q) into a full arena left %d dead bytes outweighing live ones", key, x.dead)
				}
				if !bytes.Equal(view, bytes.Repeat([]byte{PoisonByte}, len(view))) {
					t.Fatalf("a held key's view across a compaction reads %q, want poison", view)
				}
			}
			if want, ok := ref[string(key)]; ok {
				if added || id != want {
					t.Fatalf("Insert(%q) of a held key = %d, %v; want %d, false", key, id, added, want)
				}
				return
			}
			if !added || int(id) > ids {
				t.Fatalf("Insert(%q) of a new key = %d, %v, with %d ids handed out", key, id, added, ids)
			}
			for k, other := range ref {
				if other == id {
					t.Fatalf("Insert(%q) reused id %d, which %q holds", key, id, k)
				}
			}
			ref[string(key)] = id
		}
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			n := int(b >> 3)
			switch op := b & 7; {
			case op <= 3:
				key := make([]byte, min(n, len(data)))
				for i := range key {
					key[i] = data[i] % 4
				}
				data = data[len(key):]
				insert(key)
			case op == 4:
				if keys := held(); len(keys) > 0 {
					insert([]byte(keys[n%len(keys)]))
				}
			case op <= 6:
				keys := held()
				id, ok := x.Min()
				if ok != (len(keys) > 0) {
					t.Fatalf("Min ok = %v with %d keys held", ok, len(keys))
				}
				if !ok {
					break
				}
				popped := x.Key(id)
				if string(popped) != keys[0] || ref[keys[0]] != id {
					t.Fatalf("Min = %d (%q), want %d (%q)", id, popped, ref[keys[0]], keys[0])
				}
				x.PopMin()
				delete(ref, keys[0])
				if !bytes.Equal(popped, bytes.Repeat([]byte{PoisonByte}, len(popped))) {
					t.Fatalf("popped key's view reads %q, want poison", popped)
				}
			case n == 31:
				x.Reset()
				clear(ref)
			default:
				var want []string
				for _, id := range x.Sorted(nil) {
					want = append(want, string(x.Key(id)))
				}
				if keys := held(); !slices.Equal(want, keys) {
					t.Fatalf("Sorted = %q, want %q", want, keys)
				}
			}
			if x.Len() != len(ref) {
				t.Fatalf("Len = %d, reference holds %d", x.Len(), len(ref))
			}
			for k, id := range ref {
				if !x.Live(id) || string(x.Key(id)) != k {
					t.Fatalf("id %d: Live %v, key %q; want %q", id, x.Live(id), x.Key(id), k)
				}
			}
		}
	})
}

// TestKeyIndexPopsInOrder pops a thousand keys inserted in scrambled
// order, under raw order and with a comparator, twice: the second round
// reuses the index the first emptied.
func TestKeyIndexPopsInOrder(t *testing.T) {
	for _, cmp := range []Compare{nil, Bytes} {
		var x KeyIndex
		x.Init(cmp)
		for round := 0; round < 2; round++ {
			for i := 0; i < 1000; i++ {
				if _, _, err := x.Insert(fmt.Appendf(nil, "key%04d", (i*7919)%1000)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 1000; i++ {
				id, ok := x.Min()
				if want := fmt.Sprintf("key%04d", i); !ok || string(x.Key(id)) != want {
					t.Fatalf("pop %d: %q, %v; want %q", i, x.Key(id), ok, want)
				}
				x.PopMin()
			}
			if x.Len() != 0 || len(x.keys) != 0 {
				t.Fatalf("an emptied index holds %d keys in %d bytes", x.Len(), len(x.keys))
			}
		}
	}
}
