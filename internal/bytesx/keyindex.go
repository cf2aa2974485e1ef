package bytesx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/maphash"
	"math"
	"slices"
	"unsafe"
)

// KeyPrefix returns key's first 8 bytes as a big-endian integer,
// zero-padded when the key is shorter: two prefixes compare as their
// keys do under Bytes whenever they differ.
func KeyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p [8]byte
	copy(p[:], key)
	return binary.BigEndian.Uint64(p[:])
}

// KeyIndex is the ordered set of distinct keys under Anti-Combining's
// Shared and a monoid's fold table. It copies each key into one arena,
// finds it through an open-addressed maphash index and names it by an
// id that stays fixed while the key is held, so an owner keeps what it
// stores per key in slices indexed by id that never move. Freed ids are
// reused. The first ordered use (Min, PopMin) builds a min-heap that
// later inserts join; with no comparator it orders raw bytes, on the
// cached KeyPrefix first. PopMin is the only removal: its key's bytes
// stay dead in the arena until the index empties, or until an insert
// finds the arena full and dead bytes outweighing live ones, and moves
// the live keys to a spare arena instead of growing it. A drain — pops
// with no inserts between them — therefore copies no key. The zero
// KeyIndex is empty and orders raw bytes.
type KeyIndex struct {
	cmp     Compare    // nil: raw bytes
	keys    []byte     // every held key's bytes, and dead ones
	spare   []byte     // compaction's target, poisoned since it last held keys
	ents    []keyEntry // by id
	free    int32      // 1 + the first id not in use, 0 = none
	slots   []int32    // open-addressed index of held ids: id+1, 0 = empty
	heap    []heapItem // held ids, smallest key first, once ordered
	ordered bool
	live    int // held keys
	dead    int // bytes of removed keys still in keys
}

// keyEntry addresses one key, n bytes at off in keys. A free id's off
// is -1 - x.free as it was when the id was freed, which chains the free
// ids. hash is the low half of the key's maphash.
type keyEntry struct {
	hash   uint32
	off, n int32
}

// heapItem is a held id in the heap, with its key's prefix.
type heapItem struct {
	prefix uint64
	id     int32
}

// indexSeed keys every KeyIndex.
var indexSeed = maphash.MakeSeed()

// ErrKeysTooLarge refuses a key that would take an index's arena past
// what an entry can address.
var ErrKeysTooLarge = errors.New("bytesx: key index arena would exceed 2 GiB")

// Init empties x, keeping its buffers, and orders it by cmp (nil: raw
// bytes).
func (x *KeyIndex) Init(cmp Compare) {
	x.Reset()
	x.cmp = cmp
}

// Reset empties x, keeping its buffers and its order. The heap is
// built again on the next ordered use.
func (x *KeyIndex) Reset() {
	if x.live > 0 {
		clear(x.slots)
	}
	x.keys, x.ents, x.heap = x.keys[:0], x.ents[:0], x.heap[:0]
	x.free, x.live, x.dead, x.ordered = 0, 0, 0, false
}

// Release empties x like Reset for an owner that pools it, and in test
// binaries poisons both arenas, so a key view kept past it reads poison
// instead of the next owner's keys.
func (x *KeyIndex) Release() {
	x.Reset()
	Poison(x.keys)
	Poison(x.spare)
}

// Len reports how many keys x holds.
func (x *KeyIndex) Len() int { return x.live }

// Live reports whether id names a held key.
func (x *KeyIndex) Live(id int32) bool { return int(id) < len(x.ents) && x.ents[id].off >= 0 }

// Key returns id's key, a view of the arena valid until the next
// Insert, or until the key is popped.
func (x *KeyIndex) Key(id int32) []byte {
	e := &x.ents[id]
	end := e.off + e.n
	return x.keys[e.off:end:end]
}

// Insert returns key's id, adding a copy of key when x does not hold
// it. A new id is at most the number of ids handed out so far, so an
// owner's slice indexed by id grows by at most one append. key must not
// be a view of x.
func (x *KeyIndex) Insert(key []byte) (id int32, added bool, err error) {
	if 2*x.live >= len(x.slots) {
		x.rehash(max(64, 2*len(x.slots)))
	}
	h := uint32(maphash.Bytes(indexSeed, key))
	mask := uint32(len(x.slots) - 1)
	slot := h & mask
	for ; x.slots[slot] != 0; slot = (slot + 1) & mask {
		if i := x.slots[slot] - 1; x.ents[i].hash == h && bytes.Equal(x.Key(i), key) {
			return i, false, nil
		}
	}
	if len(x.keys)+len(key) > cap(x.keys) && 2*x.dead > len(x.keys) {
		x.compact()
	}
	if len(x.keys)+len(key) > math.MaxInt32 {
		return -1, false, ErrKeysTooLarge
	}
	e := keyEntry{hash: h, off: int32(len(x.keys)), n: int32(len(key))}
	if x.free != 0 {
		id = x.free - 1
		x.free = -1 - x.ents[id].off
		x.ents[id] = e
	} else {
		id = int32(len(x.ents))
		x.ents = append(x.ents, e)
	}
	x.keys = append(x.keys, key...)
	x.slots[slot] = id + 1
	x.live++
	if x.ordered {
		x.heap = append(x.heap, heapItem{KeyPrefix(key), id})
		x.up(len(x.heap) - 1)
	}
	return id, true, nil
}

// rehash rebuilds the hash index over the held ids, in n slots.
func (x *KeyIndex) rehash(n int) {
	x.slots = make([]int32, n)
	mask := uint32(n - 1)
	for i, e := range x.ents {
		if e.off < 0 {
			continue
		}
		slot := e.hash & mask
		for x.slots[slot] != 0 {
			slot = (slot + 1) & mask
		}
		x.slots[slot] = int32(i) + 1
	}
}

// unindex removes id from the hash index, moving the later ids of its
// probe run back over the hole so that every lookup still finds its key
// before an empty slot.
func (x *KeyIndex) unindex(id int32) {
	mask := uint32(len(x.slots) - 1)
	hole := x.ents[id].hash & mask
	for x.slots[hole] != id+1 {
		hole = (hole + 1) & mask
	}
	for next := (hole + 1) & mask; x.slots[next] != 0; next = (next + 1) & mask {
		home := x.ents[x.slots[next]-1].hash & mask
		if (next-home)&mask >= (next-hole)&mask {
			x.slots[hole] = x.slots[next]
			hole = next
		}
	}
	x.slots[hole] = 0
}

// rawLess orders heap items by raw key bytes, on the prefix first.
func (x *KeyIndex) rawLess(a, b heapItem) bool {
	if a.prefix != b.prefix {
		return a.prefix < b.prefix
	}
	return bytes.Compare(x.Key(a.id), x.Key(b.id)) < 0
}

// up and down move the item at j to its place, shifting the items it
// passes into the hole it leaves. With a comparator, each key they
// compare is looked up once.
func (x *KeyIndex) up(j int) {
	h, it := x.heap, x.heap[j]
	var key []byte
	if x.cmp != nil {
		key = x.Key(it.id)
	}
	for j > 0 {
		parent := (j - 1) / 2
		if x.cmp != nil && x.cmp(key, x.Key(h[parent].id)) >= 0 || x.cmp == nil && !x.rawLess(it, h[parent]) {
			break
		}
		h[j] = h[parent]
		j = parent
	}
	h[j] = it
}

func (x *KeyIndex) down(j int) {
	h, it := x.heap, x.heap[j]
	if x.cmp == nil {
		for c := 2*j + 1; c < len(h); c = 2*j + 1 {
			if r := c + 1; r < len(h) && x.rawLess(h[r], h[c]) {
				c = r
			}
			if !x.rawLess(h[c], it) {
				break
			}
			h[j], j = h[c], c
		}
	} else {
		key := x.Key(it.id)
		for c := 2*j + 1; c < len(h); c = 2*j + 1 {
			kc := x.Key(h[c].id)
			if r := c + 1; r < len(h) {
				if kr := x.Key(h[r].id); x.cmp(kr, kc) < 0 {
					c, kc = r, kr
				}
			}
			if x.cmp(kc, key) >= 0 {
				break
			}
			h[j], j = h[c], c
		}
	}
	h[j] = it
}

// Min returns the id of the smallest key, building the heap on the
// first ordered use.
func (x *KeyIndex) Min() (int32, bool) {
	if !x.ordered {
		x.heapify()
	}
	if len(x.heap) == 0 {
		return -1, false
	}
	return x.heap[0].id, true
}

func (x *KeyIndex) heapify() {
	x.heap = x.heap[:0]
	for i, e := range x.ents {
		if e.off >= 0 {
			x.heap = append(x.heap, heapItem{KeyPrefix(x.Key(int32(i))), int32(i)})
		}
	}
	for j := len(x.heap)/2 - 1; j >= 0; j-- {
		x.down(j)
	}
	x.ordered = true
}

// PopMin removes the smallest key, which Min has reported, and frees
// its id. Views of that key are invalid after it: test binaries poison
// its bytes.
func (x *KeyIndex) PopMin() {
	id := x.heap[0].id
	n := len(x.heap) - 1
	x.heap[0] = x.heap[n]
	x.heap = x.heap[:n]
	if n > 1 {
		x.down(0)
	}
	x.unindex(id)
	Poison(x.Key(id))
	e := &x.ents[id]
	x.dead += int(e.n)
	e.off, x.free = -1-x.free, id+1
	x.live--
	if x.live == 0 {
		x.Reset()
	}
}

// compact copies the held keys into the spare arena, poisons the old
// one and makes it the spare.
func (x *KeyIndex) compact() {
	keys := x.spare[:0]
	for i := range x.ents {
		e := &x.ents[i]
		if e.off < 0 {
			continue
		}
		k := x.keys[e.off : e.off+e.n]
		e.off = int32(len(keys))
		keys = append(keys, k...)
	}
	Poison(x.keys)
	x.keys, x.spare, x.dead = keys, x.keys[:0], 0
}

// Sorted appends the held ids to dst in key order, without building
// the heap.
func (x *KeyIndex) Sorted(dst []int32) []int32 {
	n := len(dst)
	for i, e := range x.ents {
		if e.off >= 0 {
			dst = append(dst, int32(i))
		}
	}
	cmp := x.cmp
	if cmp == nil {
		cmp = bytes.Compare
	}
	slices.SortFunc(dst[n:], func(a, b int32) int { return cmp(x.Key(a), x.Key(b)) })
	return dst
}

// ArenaCap reports the capacity of both key arenas.
func (x *KeyIndex) ArenaCap() int { return cap(x.keys) + cap(x.spare) }

// Footprint reports how many ids x has room for and the bytes all its
// buffers hold, for an owner deciding whether to pool it.
func (x *KeyIndex) Footprint() (ids int, bytes uintptr) {
	return cap(x.ents), uintptr(x.ArenaCap()) + uintptr(cap(x.ents))*unsafe.Sizeof(keyEntry{}) +
		uintptr(len(x.slots))*4 + uintptr(cap(x.heap))*unsafe.Sizeof(heapItem{})
}
