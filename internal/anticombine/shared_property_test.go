package anticombine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bytesx"
	"repro/internal/iokit"
)

// sharedValueSizes are the value lengths the reference checks run
// through: mostly small, and every edge of a block — empty, one short of
// a block, a block, one over, and three blocks in an exact-size block of
// their own — so keys, values, compaction and spills cross block edges.
var sharedValueSizes = []int{7, 7, 7, 7, 7, 7, 7, 0, blockSize - 1, blockSize, blockSize + 1, 3 * blockSize}

// sharedRef drives a Shared and checks every observation against a plain
// sorted-multimap reference. A popped group is a set of views into
// Shared's buffers, valid until the next mutation: it is checked only
// after the non-mutating calls that follow the pop, and — as long as
// nothing has spilled — must list the values in arrival order.
type sharedRef struct {
	t    testing.TB
	name string // the run, for failure messages
	s    *Shared
	ref  map[string][]string
	ops  int
	// floor is the last popped key. Adds only use keys >= it (the
	// drain-in-order discipline AntiReducer guarantees), and popped keys
	// must be >= it.
	floor string
}

func newSharedRef(t testing.TB, name string, memLimit, mergeFactor int) *sharedRef {
	return &sharedRef{
		t:    t,
		name: name,
		s: NewShared(SharedConfig{
			KeyCompare:    bytesx.Bytes,
			MemLimitBytes: memLimit,
			MergeFactor:   mergeFactor,
			FS:            iokit.NewMemFS(),
			Prefix:        name,
		}),
		ref: map[string][]string{},
	}
}

func (c *sharedRef) fatalf(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("%s op %d: %s", c.name, c.ops, fmt.Sprintf(format, args...))
}

func (c *sharedRef) minKey() (string, bool) {
	keys := make([]string, 0, len(c.ref))
	for k := range c.ref {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return "", false
	}
	sort.Strings(keys)
	return keys[0], true
}

// add adds a value of size bytes, made distinct by id, under one of 40
// keys above the floor.
func (c *sharedRef) add(key, size, id int) {
	c.ops++
	k := fmt.Sprintf("%s%02d", c.floor, key%40)
	v := fmt.Sprintf("v%06d", id)
	if size < len(v) {
		v = v[:size]
	} else {
		v += strings.Repeat(string(rune('a'+id%26)), size-len(v))
	}
	if err := c.s.Add([]byte(k), []byte(v)); err != nil {
		c.fatalf("Add: %v", err)
	}
	c.ref[k] = append(c.ref[k], v)
}

func (c *sharedRef) peek() {
	c.ops++
	want, wantOK := c.minKey()
	got, ok := c.s.PeekMinKey()
	if ok != wantOK || (ok && string(got) != want) {
		c.fatalf("PeekMinKey = %q/%v, want %q/%v", got, ok, want, wantOK)
	}
}

func (c *sharedRef) pop() {
	c.ops++
	want, ok := c.minKey()
	if !ok {
		return
	}
	k, vals, err := c.s.PopMinKeyValues()
	if err != nil {
		c.fatalf("Pop: %v", err)
	}
	c.s.PeekMinKey()
	c.s.Empty()
	if string(k) != want {
		c.fatalf("popped %q, want %q", k, want)
	}
	got := make([]string, len(vals))
	for i, v := range vals {
		got[i] = string(v)
	}
	wantVals := append([]string(nil), c.ref[want]...)
	if c.s.Spills() > 0 {
		sort.Strings(got)
		sort.Strings(wantVals)
	}
	if len(got) != len(wantVals) {
		c.fatalf("key %q: %d values, want %d", k, len(got), len(wantVals))
	}
	for i := range wantVals {
		if got[i] != wantVals[i] {
			c.fatalf("key %q: value %d has %d bytes %.20q…, want %d bytes %.20q…",
				k, i, len(got[i]), got[i], len(wantVals[i]), wantVals[i])
		}
	}
	delete(c.ref, want)
	c.floor = want
}

// drain pops the remainder, checks nothing is left on either side and
// closes the Shared.
func (c *sharedRef) drain() {
	for !c.s.Empty() {
		c.pop()
	}
	if len(c.ref) != 0 {
		c.fatalf("%d keys never surfaced", len(c.ref))
	}
	if err := c.s.Close(); err != nil {
		c.fatalf("Close: %v", err)
	}
}

// TestSharedRandomizedAgainstReference drives Shared with random
// interleavings of Add / PeekMinKey / PopMinKeyValues across many
// memory-limit configurations and value sizes and checks every
// observation against the reference.
func TestSharedRandomizedAgainstReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		memLimit := []int{32, 100, 1000, 1 << 20}[trial%4]
		mergeFactor := []int{2, 3, 10}[trial%3]
		c := newSharedRef(t, fmt.Sprintf("rand%04d", trial), memLimit, mergeFactor)
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				c.add(rng.Intn(40), sharedValueSizes[rng.Intn(len(sharedValueSizes))], rng.Intn(1000000))
			case 2:
				c.peek()
			case 3:
				c.pop()
			}
		}
		c.drain()
	}
}

// FuzzShared runs an op sequence against the reference: each op is two
// bytes, the first choosing Add / PeekMinKey / PopMinKeyValues and an
// Add's value size, the second an Add's key.
func FuzzShared(f *testing.F) {
	f.Add(uint16(32), uint8(2), []byte("\x00\x01\x04\x02\x08\x01\x02\x00\x03\x00\x03\x00"))
	f.Add(uint16(1000), uint8(3), []byte("\x1c\x05\x20\x05\x24\x06\x2c\x07\x03\x00\x01\x05\x03\x00"))
	f.Add(uint16(0), uint8(10), []byte("\x2c\x01\x28\x02\x24\x03\x20\x04\x1c\x05\x03\x00\x00\x06\x03\x00\x03\x00"))
	f.Fuzz(func(t *testing.T, memLimit uint16, mergeFactor uint8, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		c := newSharedRef(t, "fuzz", int(memLimit), int(mergeFactor))
		for i := 0; i+1 < len(ops); i += 2 {
			switch op := ops[i]; op % 4 {
			case 0, 1:
				c.add(int(ops[i+1]), sharedValueSizes[int(op/4)%len(sharedValueSizes)], i)
			case 2:
				c.peek()
			case 3:
				c.pop()
			}
		}
		c.drain()
	})
}
