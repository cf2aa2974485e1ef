package anticombine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/mr"
)

func TestUniformChoiceEquivalence(t *testing.T) {
	// The ablation mode must still compute the right answer.
	job, splits := prefixJob(nil, 4), queries(150)
	original, err := mr.Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := mr.Run(Wrap(prefixJob(nil, 4), Options{
		Strategy:      Adaptive,
		UniformChoice: true,
	}), queries(150))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutput(t, original, wrapped)
}

func TestPerPartitionChoiceBeatsUniform(t *testing.T) {
	// §6.1's argument: deciding per partition can only reduce bytes
	// compared to one decision per Map call, and on mixed workloads it
	// strictly does. The fanout job mixes shared-value and unique-value
	// emissions across partitions, so some partitions want eager and
	// others lazy within the same call.
	run := func(uniform bool) int64 {
		job := fanoutJob()
		res, err := mr.Run(Wrap(job, Options{Strategy: Adaptive, UniformChoice: uniform}),
			queries(300))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.MapOutputBytes
	}
	perPartition := run(false)
	uniform := run(true)
	if perPartition > uniform {
		t.Errorf("per-partition bytes (%d) exceed uniform (%d): optimality violated",
			perPartition, uniform)
	}
	if perPartition == uniform {
		t.Logf("per-partition == uniform (%d bytes); workload offered no mixed calls", uniform)
	}
}

func BenchmarkAblationPerPartition(b *testing.B) {
	benchChoice(b, false)
}

func BenchmarkAblationUniformChoice(b *testing.B) {
	benchChoice(b, true)
}

func benchChoice(b *testing.B, uniform bool) {
	var bytes int64
	for i := 0; i < b.N; i++ {
		job := fanoutJob()
		res, err := mr.Run(Wrap(job, Options{Strategy: Adaptive, UniformChoice: uniform}),
			queries(300))
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.Stats.MapOutputBytes
	}
	b.ReportMetric(float64(bytes), "mapout-bytes")
}

func BenchmarkEagerEncode(b *testing.B) {
	keys := [][]byte{[]byte("man"), []byte("mang"), []byte("mango")}
	value := []byte("watch how i met your mother online")
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendEagerValue(buf[:0], keys, value)
	}
	_ = buf
}

func BenchmarkDecodeEager(b *testing.B) {
	keys := [][]byte{[]byte("man"), []byte("mang"), []byte("mango")}
	buf := AppendEagerValue(nil, keys, []byte("watch how i met your mother online"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeValue(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedAddPop is one warm Shared taking 100 distinct keys and
// giving them back in order: the steady state of a reduce task whose
// records carry other keys.
func BenchmarkSharedAddPop(b *testing.B) {
	s := newTestShared(1 << 20)
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%05d", (i*37)%100))
	}
	value := []byte("watch how i met your mother online")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			s.Add(k, value)
		}
		for !s.Empty() {
			if _, _, err := s.PopMinKeyValues(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSharedFill is a reduce task's Shared from Setup to Cleanup:
// a cold instance filled with 1 KiB values under distinct keys to the
// size named, then drained in key order and closed.
func BenchmarkSharedFill(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"256KiB", 256 << 10}, {"8MiB", 8 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			value := make([]byte, 1<<10)
			keys := make([][]byte, size.bytes/len(value))
			for i, j := range rand.New(rand.NewSource(1)).Perm(len(keys)) {
				keys[i] = []byte(fmt.Sprintf("key%06d", j))
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewShared(SharedConfig{KeyCompare: bytesx.Bytes, MemLimitBytes: 1 << 30})
				for _, k := range keys {
					if err := s.Add(k, value); err != nil {
						b.Fatal(err)
					}
				}
				for !s.Empty() {
					if _, _, err := s.PopMinKeyValues(); err != nil {
						b.Fatal(err)
					}
				}
				s.Close()
			}
		})
	}
}

// BenchmarkSharedSpill is a qs_lazy-shaped reduce task's Shared: a
// 256 KiB budget and merge factor 10, filled with query-sized values
// under 4 000 prefix-like keys until it has spilled 12 times (so its runs
// are merged once), then drained in key order and closed.
func BenchmarkSharedSpill(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 90000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("q%04d", rng.Intn(4000)))
	}
	value := []byte("watch how i met your mother online")
	fs := iokit.NewMemFS()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewShared(SharedConfig{
			KeyCompare:    bytesx.Bytes,
			MemLimitBytes: 256 << 10,
			MergeFactor:   10,
			FS:            fs,
		})
		for _, k := range keys {
			if err := s.Add(k, value); err != nil {
				b.Fatal(err)
			}
		}
		for !s.Empty() {
			if _, _, err := s.PopMinKeyValues(); err != nil {
				b.Fatal(err)
			}
		}
		if s.Spills() != 12 {
			b.Fatalf("%d spills, want 12", s.Spills())
		}
		s.Close()
	}
}

// oneValueIter serves a single value, over and over after each rewind.
type oneValueIter struct {
	value []byte
	done  bool
}

func (it *oneValueIter) Next() ([]byte, bool) {
	if it.done {
		return nil, false
	}
	it.done = true
	return it.value, true
}

// BenchmarkAntiReducePlain is the AntiReducer's cost for a record that
// carries no sharing — Sort's shape (§7.1): one Reduce call on a group of
// one plain record, the original Reduce emitting it.
func BenchmarkAntiReducePlain(b *testing.B) {
	r := &antiReducer{
		inner: mr.NewReduceFunc(func(key []byte, values mr.ValueIter, out mr.Emitter) error {
			for {
				if _, ok := values.Next(); !ok {
					return nil
				}
				if err := out.Emit(key, nil); err != nil {
					return err
				}
			}
		})(),
		newMapper: mr.NewMapFunc(func(_, _ []byte, _ mr.Emitter) error { return nil }),
	}
	var out mr.Emitter = discardEmitter{}
	if err := r.Setup(harnessInfo(bytesx.Bytes, iokit.NewMemFS()), out); err != nil {
		b.Fatal(err)
	}
	key := []byte("the quick brown fox jumps over the lazy dog")
	it := &oneValueIter{value: AppendPlainValue(nil, nil)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it.done = false
		if err := r.Reduce(key, it, out); err != nil {
			b.Fatal(err)
		}
	}
}
