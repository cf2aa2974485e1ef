package anticombine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/mr"
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
// nothing has spilled — must list the values in arrival order. On a
// flipFS that has flipped a spill byte, an op may instead fail with
// ErrIntegrity, which ends the run.
type sharedRef struct {
	t    testing.TB
	name string // the run, for failure messages
	fs   iokit.FS
	s    *Shared
	ref  map[string][]string
	ops  int
	dead bool // an op failed on a flipped byte
	// floor is the last popped key. Adds only use keys >= it (the
	// drain-in-order discipline AntiReducer guarantees), and popped keys
	// must be >= it.
	floor string
}

// newSharedRef orders keys by cmp, which is Bytes or nil (raw order):
// the reference orders by bytes either way.
func newSharedRef(t testing.TB, name string, cmp bytesx.Compare, memLimit, mergeFactor int, fs iokit.FS) *sharedRef {
	return &sharedRef{
		t:    t,
		name: name,
		fs:   fs,
		s: NewShared(SharedConfig{
			KeyCompare:    cmp,
			MemLimitBytes: memLimit,
			MergeFactor:   mergeFactor,
			FS:            fs,
		}),
		ref: map[string][]string{},
	}
}

func (c *sharedRef) fatalf(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("%s op %d: %s", c.name, c.ops, fmt.Sprintf(format, args...))
}

// ok accepts an op's error only as the ErrIntegrity a flipped spill byte
// must cause, after which the Shared is dead and later ops are skipped.
func (c *sharedRef) ok(op string, err error) bool {
	c.t.Helper()
	if err == nil {
		return true
	}
	if f, _ := c.fs.(*flipFS); f != nil && f.flipped.Load() && errors.Is(err, mr.ErrIntegrity) {
		c.dead = true
		return false
	}
	c.fatalf("%s: %v", op, err)
	return false
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
	if c.dead {
		return
	}
	c.ops++
	k := fmt.Sprintf("%s%02d", c.floor, key%40)
	v := fmt.Sprintf("v%06d", id)
	if size < len(v) {
		v = v[:size]
	} else {
		v += strings.Repeat(string(rune('a'+id%26)), size-len(v))
	}
	if c.ok("Add", c.s.Add([]byte(k), []byte(v))) {
		c.ref[k] = append(c.ref[k], v)
	}
}

func (c *sharedRef) peek() {
	if c.dead {
		return
	}
	c.ops++
	want, wantOK := c.minKey()
	got, ok := c.s.peekMin()
	if ok != wantOK || (ok && string(got) != want) {
		c.fatalf("peekMin = %q/%v, want %q/%v", got, ok, want, wantOK)
	}
}

func (c *sharedRef) pop() {
	if c.dead {
		return
	}
	c.ops++
	want, ok := c.minKey()
	if !ok {
		return
	}
	k, vals, err := c.s.PopMinKeyValues()
	if !c.ok("Pop", err) {
		return
	}
	c.s.peekMin()
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

// drain pops the remainder, checks nothing is left on either side,
// closes the Shared and checks it left no file behind.
func (c *sharedRef) drain() {
	for !c.dead && !c.s.Empty() {
		c.pop()
	}
	if !c.dead && len(c.ref) != 0 {
		c.fatalf("%d keys never surfaced", len(c.ref))
	}
	if err := c.s.Close(); err != nil {
		c.fatalf("Close: %v", err)
	}
	if names, err := c.fs.List(); err != nil || len(names) != 0 {
		c.fatalf("Close left files %v (%v)", names, err)
	}
}

// TestSharedRandomizedAgainstReference drives Shared with random
// interleavings of Add / peekMin / PopMinKeyValues across many
// memory-limit configurations and value sizes and checks every
// observation against the reference, ordering keys by Bytes and by raw
// order (a nil KeyCompare) in turn.
func TestSharedRandomizedAgainstReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		memLimit := []int{32, 100, 1000, 1 << 20}[trial%4]
		mergeFactor := []int{2, 3, 10}[trial%3]
		cmp := []bytesx.Compare{bytesx.Bytes, nil}[trial/4%2]
		c := newSharedRef(t, fmt.Sprintf("rand%04d", trial), cmp, memLimit, mergeFactor, iokit.NewMemFS())
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
// bytes, the first choosing Add / peekMin / PopMinKeyValues and an
// Add's value size, the second an Add's key. One byte of the first spill
// run is flipped at flipAt, if the run is that long; then the sequence
// must either match the reference or fail with ErrIntegrity. Each input
// runs twice: keys ordered by Bytes, whose heap calls the comparator,
// and by raw order (a nil KeyCompare), whose heap compares cached
// prefixes.
func FuzzShared(f *testing.F) {
	f.Add(uint16(32), uint8(2), uint32(math.MaxUint32), []byte("\x00\x01\x04\x02\x08\x01\x02\x00\x03\x00\x03\x00"))
	f.Add(uint16(1000), uint8(3), uint32(math.MaxUint32), []byte("\x1c\x05\x20\x05\x24\x06\x2c\x07\x03\x00\x01\x05\x03\x00"))
	f.Add(uint16(0), uint8(10), uint32(math.MaxUint32), []byte("\x2c\x01\x28\x02\x24\x03\x20\x04\x1c\x05\x03\x00\x00\x06\x03\x00\x03\x00"))
	f.Add(uint16(1), uint8(2), uint32(9), []byte("\x00\x01\x00\x02\x00\x03\x03\x00\x03\x00\x03\x00"))
	f.Add(uint16(1000), uint8(10), uint32(70000), []byte("\x2c\x01\x2c\x02\x2c\x03\x2c\x04\x03\x00\x03\x00\x03\x00"))
	f.Fuzz(func(t *testing.T, memLimit uint16, mergeFactor uint8, flipAt uint32, ops []byte) {
		if len(ops) > 400 {
			ops = ops[:400]
		}
		for _, cmp := range []bytesx.Compare{bytesx.Bytes, nil} {
			fs := &flipFS{FS: iokit.NewMemFS(), match: "shared-spill", at: int64(flipAt)}
			c := newSharedRef(t, "fuzz", cmp, int(memLimit), int(mergeFactor), fs)
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
		}
	})
}
