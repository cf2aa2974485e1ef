package anticombine

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/mr"
)

func newTestShared(memLimit int) *Shared {
	return NewShared(SharedConfig{
		KeyCompare:    bytesx.Bytes,
		MemLimitBytes: memLimit,
		FS:            iokit.NewMemFS(),
	})
}

func TestSharedOrderedDrain(t *testing.T) {
	s := newTestShared(1 << 20)
	keys := []string{"delta", "alpha", "charlie", "bravo", "alpha"}
	for i, k := range keys {
		if err := s.Add([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if mk, ok := s.PeekMinKey(); !ok || string(mk) != "alpha" {
		t.Fatalf("PeekMinKey = %q, %v", mk, ok)
	}
	var got []string
	for !s.Empty() {
		k, vals, err := s.PopMinKeyValues()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%d", k, len(vals)))
	}
	want := []string{"alpha:2", "bravo:1", "charlie:1", "delta:1"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("drain[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	if _, _, err := s.PopMinKeyValues(); err == nil {
		t.Error("pop on empty should error")
	}
}

func TestSharedSpillAndMerge(t *testing.T) {
	// A tiny memory limit forces many spills; a tiny merge factor forces
	// run merging. All values must still come back grouped and in order.
	s := NewShared(SharedConfig{
		KeyCompare:    bytesx.Bytes,
		MemLimitBytes: 64,
		MergeFactor:   2,
		FS:            iokit.NewMemFS(),
	})
	rng := rand.New(rand.NewSource(5))
	want := map[string][]string{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key%03d", rng.Intn(60))
		v := fmt.Sprintf("value%05d", i)
		want[k] = append(want[k], v)
		if err := s.Add([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spills() == 0 {
		t.Fatal("expected spills")
	}
	var prev string
	popped := 0
	for !s.Empty() {
		k, vals, err := s.PopMinKeyValues()
		if err != nil {
			t.Fatal(err)
		}
		ks := string(k)
		if prev != "" && ks <= prev {
			t.Fatalf("keys out of order: %q after %q", ks, prev)
		}
		prev = ks
		popped++
		gotVals := make([]string, len(vals))
		for i, v := range vals {
			gotVals[i] = string(v)
		}
		sort.Strings(gotVals)
		wv := append([]string(nil), want[ks]...)
		sort.Strings(wv)
		if len(gotVals) != len(wv) {
			t.Fatalf("key %s: %d values, want %d", ks, len(gotVals), len(wv))
		}
		for i := range wv {
			if gotVals[i] != wv[i] {
				t.Fatalf("key %s value mismatch", ks)
			}
		}
		delete(want, ks)
	}
	if len(want) != 0 {
		t.Errorf("%d keys never popped", len(want))
	}
}

func TestSharedInterleavedAddPop(t *testing.T) {
	// Keys in a spill run and later re-added in memory must merge on pop.
	s := NewShared(SharedConfig{
		KeyCompare:    bytesx.Bytes,
		MemLimitBytes: 40,
		FS:            iokit.NewMemFS(),
	})
	for i := 0; i < 10; i++ {
		if err := s.Add([]byte("kk"), []byte(fmt.Sprintf("spillme%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Spills() == 0 {
		t.Fatal("expected a spill")
	}
	if err := s.Add([]byte("kk"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	_, vals, err := s.PopMinKeyValues()
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 11 {
		t.Errorf("got %d values, want 11 (memory + spilled)", len(vals))
	}
}

func TestSharedGroupCompare(t *testing.T) {
	groupByFirstByte := func(a, b []byte) int {
		return bytesx.Bytes(a[:1], b[:1])
	}
	s := NewShared(SharedConfig{
		KeyCompare:   bytesx.Bytes,
		GroupCompare: groupByFirstByte,
		FS:           iokit.NewMemFS(),
	})
	for _, k := range []string{"a1", "a2", "b1", "a3"} {
		if err := s.Add([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	k, vals, err := s.PopMinKeyValues()
	if err != nil {
		t.Fatal(err)
	}
	if string(k) != "a1" || len(vals) != 3 {
		t.Errorf("first group: key=%q n=%d, want a1/3", k, len(vals))
	}
	k2, vals2, err := s.PopMinKeyValues()
	if err != nil {
		t.Fatal(err)
	}
	if string(k2) != "b1" || len(vals2) != 1 {
		t.Errorf("second group: key=%q n=%d", k2, len(vals2))
	}
	if !s.Empty() {
		t.Error("should be empty")
	}
}

// sumCombiner adds decimal values, for combine-on-insert tests.
type sumCombiner struct{ mr.ReducerBase }

func (sumCombiner) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	total := 0
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		total += n
	}
	return out.Emit(key, []byte(strconv.Itoa(total)))
}

func TestSharedCombineOnInsert(t *testing.T) {
	s := NewShared(SharedConfig{
		KeyCompare:    bytesx.Bytes,
		MemLimitBytes: 1 << 20,
		FS:            iokit.NewMemFS(),
		Combiner:      sumCombiner{},
	})
	for i := 1; i <= 100; i++ {
		if err := s.Add([]byte("k"), []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	_, vals, err := s.PopMinKeyValues()
	if err != nil {
		t.Fatal(err)
	}
	// Combining is batched, so up to combineBatch-1 values may remain —
	// but their sum must be exact and the count bounded.
	if len(vals) >= combineBatch {
		t.Errorf("%d values remain; combine-on-insert should bound this below %d",
			len(vals), combineBatch)
	}
	total := 0
	for _, v := range vals {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 100 {
		t.Errorf("combined sum = %d, want 100", total)
	}
	if s.Spills() != 0 {
		t.Errorf("combine-on-insert should have kept Shared in memory, spilled %d times", s.Spills())
	}
}

func TestSharedCombineKeepsMemorySmall(t *testing.T) {
	// Without a combiner this workload spills; with one it must not —
	// the Table 2 AdaptiveSH-CB effect.
	plain := newTestShared(128)
	for i := 0; i < 500; i++ {
		plain.Add([]byte(fmt.Sprintf("k%d", i%4)), []byte("1"))
	}
	if plain.Spills() == 0 {
		t.Fatal("plain Shared should spill under this load")
	}
	combined := NewShared(SharedConfig{
		KeyCompare:    bytesx.Bytes,
		MemLimitBytes: 128,
		FS:            iokit.NewMemFS(),
		Combiner:      sumCombiner{},
	})
	for i := 0; i < 500; i++ {
		if err := combined.Add([]byte(fmt.Sprintf("k%d", i%4)), []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	if combined.Spills() != 0 {
		t.Errorf("combined Shared spilled %d times", combined.Spills())
	}
}

func TestSharedSpillWithoutFS(t *testing.T) {
	s := NewShared(SharedConfig{KeyCompare: bytesx.Bytes, MemLimitBytes: 8})
	err := s.Add([]byte("key"), []byte("a long enough value to overflow"))
	if err == nil {
		t.Error("spill without FS should error")
	}
}

func TestSharedPeekEmpty(t *testing.T) {
	s := newTestShared(1 << 20)
	if _, ok := s.PeekMinKey(); ok {
		t.Error("peek on empty should report !ok")
	}
	if !s.Empty() {
		t.Error("new Shared should be empty")
	}
}

// TestSharedWarmAddPopDoesNotAllocate: once the blocks, the entry slots
// and the index have grown to a workload's size, adding and popping it
// again allocates nothing — including re-adding popped keys, compaction
// of a Shared that never empties, and value lists that grow.
func TestSharedWarmAddPopDoesNotAllocate(t *testing.T) {
	s := NewShared(SharedConfig{KeyCompare: bytesx.Bytes, MemLimitBytes: 1 << 30})
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%03d", (i*37)%64))
	}
	value := bytes.Repeat([]byte("v"), 2048)
	round := func() {
		for _, k := range keys {
			s.Add(k, value)
			s.Add(k, value[:9])
		}
		for range keys {
			if _, vals, err := s.PopMinKeyValues(); err != nil || len(vals) != 2 {
				t.Fatalf("pop: %d values, %v", len(vals), err)
			}
		}
	}
	// A key larger than all others stays behind for good, so the blocks
	// never empty and reclaiming their dead bytes is compaction's job.
	s.Add([]byte("zzz"), value)
	for i := 0; i < 8; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("a warm Shared allocates %v times per 128 adds + 64 pops, want 0", allocs)
	}
	peak := len(keys)*(len(keys[0])+len(value)+9) + s.mem
	if s.stored > 2*peak+compactSlack {
		t.Errorf("blocks hold %d bytes after rounds of %d live: compaction is not reclaiming dead space", s.stored, peak)
	}
}

// TestSharedGrowthAllocatesOnce: filling a cold Shared with 8 MiB
// allocates each block once — what it holds, plus the value list —
// because nothing is copied to grow.
func TestSharedGrowthAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates behind the measurement")
	}
	const fill = 8 << 20
	s := NewShared(SharedConfig{KeyCompare: bytesx.Bytes, MemLimitBytes: 1 << 30})
	defer s.Close()
	key, value := []byte("key"), make([]byte, 16<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.Add(key, value[len(key):])
	for err == nil && s.mem < fill {
		err = s.Add(key, value)
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > fill+2*blockSize {
		t.Errorf("filling a Shared with %d MiB allocated %.2f MiB, want at most %d MiB + 2 blocks",
			fill>>20, float64(got)/(1<<20), fill>>20)
	}
}

// TestSharedPoisonsBlocksAtClose keeps a view PopMinKeyValues returned
// past Close, which ends its life: in a test binary the block under it
// went back to the pool poisoned, so the view reads poison rather than
// the next owner's bytes.
func TestSharedPoisonsBlocksAtClose(t *testing.T) {
	s := newTestShared(1 << 20)
	if err := s.Add([]byte("k"), []byte("a value kept too long")); err != nil {
		t.Fatal(err)
	}
	_, vals, err := s.PopMinKeyValues()
	if err != nil || len(vals) != 1 {
		t.Fatalf("pop: %d values, %v", len(vals), err)
	}
	kept := vals[0]
	if string(kept) != "a value kept too long" {
		t.Fatalf("view reads %q before Close", kept)
	}
	s.Close()
	if want := bytes.Repeat([]byte{bytesx.PoisonByte}, len(kept)); !bytes.Equal(kept, want) {
		t.Errorf("view kept past Close reads %q, want poison", kept)
	}
}

// TestSharedHugeValueListIsNotPooled: the pooling bound counts value-list
// capacity, so a Shared with one slot whose list grew to half a million
// values is dropped at Close, while a small one is pooled.
func TestSharedHugeValueListIsNotPooled(t *testing.T) {
	// Pooled on one P, so that draining the pool finds every Put.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pooled := func(values int) bool {
		s := newTestShared(1 << 30)
		for i := 0; i < values; i++ {
			if err := s.Add([]byte("k"), []byte{'v'}); err != nil {
				t.Fatal(err)
			}
		}
		box := s.box
		s.Close()
		found := false
		for {
			b, _ := sharedPool.Get().(*sharedBufs)
			if b == nil {
				return found
			}
			found = found || b == box
		}
	}
	if pooled(1 << 19) {
		t.Error("a Shared with one slot of 2^19 values was pooled")
	}
	// The race detector drops some Puts at random.
	if !raceEnabled && !pooled(100) {
		t.Error("a Shared with one slot of 100 values was not pooled")
	}
}

// TestSharedRejectsOversizeSpan: a span addresses at most 2 GiB − 1
// bytes, and Add refuses longer keys and values instead of wrapping an
// offset. The slices only claim that length: Add must refuse them before
// reading a byte.
func TestSharedRejectsOversizeSpan(t *testing.T) {
	if raceEnabled {
		t.Skip("checkptr rejects a slice longer than its allocation")
	}
	var b [1]byte
	huge := unsafe.Slice(&b[0], maxSpan+1)
	s := newTestShared(1 << 20)
	defer s.Close()
	if err := s.Add(huge, nil); err != errSpanTooLarge {
		t.Errorf("Add with a 2 GiB key: %v, want errSpanTooLarge", err)
	}
	if err := s.Add([]byte("k"), huge); err != errSpanTooLarge {
		t.Errorf("Add with a 2 GiB value: %v, want errSpanTooLarge", err)
	}
	if !s.Empty() {
		t.Error("a refused Add left content behind")
	}
}
