package partition_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/anticombine"
	"repro/internal/bytesx"
	"repro/internal/mr"
	"repro/internal/partition"
	"repro/internal/workloads/skewagg"
)

func TestSketchExactUnderCapacity(t *testing.T) {
	sk := partition.NewSketch()
	sk.Add([]byte("a"), 10, 1)
	sk.Add([]byte("b"), 20, 2)
	sk.Add([]byte("a"), 5, 1)
	if got := sk.TotalBytes(); got != 35 {
		t.Fatalf("TotalBytes = %d, want 35", got)
	}
	if got := sk.TotalRecords(); got != 4 {
		t.Fatalf("TotalRecords = %d, want 4", got)
	}
	keys := sk.Keys(nil)
	if len(keys) != 2 {
		t.Fatalf("Keys len = %d, want 2", len(keys))
	}
	if string(keys[0].Key) != "a" || keys[0].Bytes != 15 || keys[0].ErrBytes != 0 {
		t.Fatalf("key a = %+v", keys[0])
	}
	if string(keys[1].Key) != "b" || keys[1].Bytes != 20 {
		t.Fatalf("key b = %+v", keys[1])
	}
}

func TestSketchEvictionConservesTotal(t *testing.T) {
	sk := partition.NewSketch()
	sk.Add([]byte("a"), 100, 1)
	for i := 0; i < partition.SketchCapacity-1; i++ {
		sk.Add([]byte(fmt.Sprintf("b%04d", i)), 1, 1)
	}
	sk.Add([]byte("c"), 50, 1) // evicts b0000, the lightest, inheriting its weight
	if got, want := sk.TotalBytes(), int64(100+partition.SketchCapacity-1+50); got != want {
		t.Fatalf("TotalBytes = %d, want %d (evictions conserve the sum)", got, want)
	}
	if sk.Len() != partition.SketchCapacity {
		t.Fatalf("Len = %d, want %d", sk.Len(), partition.SketchCapacity)
	}
	keys := sk.Keys(nil)
	if string(keys[0].Key) != "a" || keys[0].Bytes != 100 {
		t.Fatalf("first = %+v, want a/100", keys[0])
	}
	if string(keys[1].Key) != "b0001" {
		t.Fatalf("second = %q, want b0000 evicted", keys[1].Key)
	}
	if c := keys[len(keys)-1]; string(c.Key) != "c" || c.Bytes != 51 || c.ErrBytes != 1 {
		t.Fatalf("c = %+v, want bytes 51 (inherited) err 1", c)
	}
}

func TestPackLPT(t *testing.T) {
	weights := []int64{7, 5, 4, 3, 2, 2, 1}
	assign, loads := partition.PackLPT(weights, 3)
	if len(assign) != len(weights) || len(loads) != 3 {
		t.Fatalf("shape: assign %d loads %d", len(assign), len(loads))
	}
	var sum int64
	for _, l := range loads {
		sum += l
	}
	if sum != 24 {
		t.Fatalf("loads sum = %d, want 24", sum)
	}
	if r := partition.SkewRatio(loads); r > 4.0/3 {
		t.Fatalf("LPT ratio = %.3f, beyond the 4/3 bound", r)
	}
	// Deterministic.
	assign2, _ := partition.PackLPT(weights, 3)
	for i := range assign {
		if assign[i] != assign2[i] {
			t.Fatalf("assignment not deterministic at %d", i)
		}
	}
}

func TestRangePartitionerRouting(t *testing.T) {
	sk := partition.NewSketch()
	for i := 0; i < 100; i++ {
		sk.Add([]byte(fmt.Sprintf("key%03d", i)), 10, 1)
	}
	rp, err := partition.BuildRange(sk, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := partition.SkewRatio(rp.PredictedLoads()); r > 1.25 {
		t.Fatalf("uniform keys should pack near-perfectly, got %.3f", r)
	}
	// Every key routes in range, and unsampled keys (outside the sampled
	// space) still land somewhere valid.
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		p := rp.Partition([]byte(fmt.Sprintf("key%03d", i)), 4)
		if p < 0 || p >= 4 {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d partitions used", len(seen))
	}
	if p := rp.Partition([]byte("zzz-unsampled"), 4); p < 0 || p >= 4 {
		t.Fatalf("unsampled key partition %d out of range", p)
	}
}

func TestDecideStrategies(t *testing.T) {
	// Uniform: many same-weight keys spread fine under hash.
	uniform := partition.NewSketch()
	for i := 0; i < 1000; i++ {
		uniform.Add([]byte(fmt.Sprintf("key%04d", i)), 100, 1)
	}
	d, err := partition.Decide(uniform, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy != partition.StrategyHash {
		t.Fatalf("uniform keys: got %v (%s), want hash", d.Strategy, d.Reason)
	}

	// One key dominating past a whole reducer: must split.
	giant := partition.NewSketch()
	giant.Add([]byte("hot"), 10000, 100)
	for i := 0; i < 50; i++ {
		giant.Add([]byte(fmt.Sprintf("cold%02d", i)), 100, 1)
	}
	d, err = partition.Decide(giant, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy != partition.StrategySplit {
		t.Fatalf("giant key: got %v (%s), want split", d.Strategy, d.Reason)
	}
	if d.Predicted[partition.StrategySplit] >= d.Predicted[partition.StrategyHash] {
		t.Fatalf("split predicted %.2f not better than hash %.2f",
			d.Predicted[partition.StrategySplit], d.Predicted[partition.StrategyHash])
	}

	// Few heavy-but-splittable-free keys that collide under hash but
	// pack fine as ranges: range should win.
	skewed := partition.NewSketch()
	for i := 0; i < 16; i++ {
		w := int64(100)
		if i < 2 {
			w = 400 // heavy but below a reducer's worth
		}
		skewed.Add([]byte(fmt.Sprintf("key%02d", i)), w, 1)
	}
	d, err = partition.Decide(skewed, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy == partition.StrategyHash {
		t.Fatalf("skewed keys: hash should not be balanced (predicted %.2f): %s",
			d.Predicted[partition.StrategyHash], d.Reason)
	}
}

func TestSampleExactAndStrided(t *testing.T) {
	scfg := skewagg.Config{Records: 2000, Keys: 50, Reducers: 4, Seed: 7}
	gen := skewagg.NewGen(scfg)
	splits := skewagg.Splits(gen, 4)

	exact, err := partition.Sample(skewagg.NewJob(scfg), splits)
	if err != nil {
		t.Fatal(err)
	}
	if exact.TotalRecords() != int64(scfg.Records) {
		t.Fatalf("exact sample records = %d, want %d", exact.TotalRecords(), scfg.Records)
	}
}

// sortedRecords flattens a result's output and sorts it globally —
// Result.SortedOutput keeps partition order, which differs by
// partitioner, so cross-strategy comparison needs a full sort.
func sortedRecords(t *testing.T, res *mr.Result) []mr.Record {
	t.Helper()
	recs := res.SortedOutput()
	sort.Slice(recs, func(i, j int) bool {
		if c := bytes.Compare(recs[i].Key, recs[j].Key); c != 0 {
			return c < 0
		}
		return bytes.Compare(recs[i].Value, recs[j].Value) < 0
	})
	return recs
}

func runStrategy(t *testing.T, scfg skewagg.Config, splits []mr.Split, strat partition.Strategy, sk *partition.Sketch, wrap func(*mr.Job) *mr.Job) *mr.Result {
	t.Helper()
	base := skewagg.NewJob(scfg)
	var job *mr.Job
	var plan *partition.SplitPlan
	var err error
	if strat == partition.StrategySplit {
		plan, err = partition.BuildSplit(sk, scfg.Reducers, nil)
		if err != nil {
			t.Fatal(err)
		}
		job, err = partition.SplitJob(base, plan, skewagg.NewCombiner)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		job, plan, err = partition.Apply(base, strat, sk)
		if err != nil {
			t.Fatal(err)
		}
	}
	if wrap != nil {
		job = wrap(job)
	}
	res, err := mr.Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Recombine(base, plan, res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStrategiesProduceIdenticalRecords(t *testing.T) {
	scfg := skewagg.Config{Records: 4000, Keys: 80, Reducers: 6, Seed: 11}
	gen := skewagg.NewGen(scfg)
	splits := skewagg.Splits(gen, 4)
	sk, err := partition.Sample(skewagg.NewJob(scfg), splits)
	if err != nil {
		t.Fatal(err)
	}

	want := sortedRecords(t, runStrategy(t, scfg, splits, partition.StrategyHash, sk, nil))

	// Cross-check against the sequential reference.
	ref := skewagg.Reference(gen)
	if len(want) != len(ref) {
		t.Fatalf("hash run has %d keys, reference %d", len(want), len(ref))
	}
	for _, r := range want {
		if got, ok := ref[string(r.Key)]; !ok || got != string(r.Value) {
			t.Fatalf("hash run disagrees with reference at %q: %q vs %q", r.Key, r.Value, got)
		}
	}

	for _, strat := range []partition.Strategy{partition.StrategyRange, partition.StrategySplit} {
		got := sortedRecords(t, runStrategy(t, scfg, splits, strat, sk, nil))
		if len(got) != len(want) {
			t.Fatalf("%v: %d records, want %d", strat, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("%v record %d = %q=%q, want %q=%q",
					strat, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

func TestSplitComposesWithAntiCombining(t *testing.T) {
	scfg := skewagg.Config{Records: 3000, Keys: 60, Reducers: 4, Seed: 3}
	gen := skewagg.NewGen(scfg)
	splits := skewagg.Splits(gen, 3)
	sk, err := partition.Sample(skewagg.NewJob(scfg), splits)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRecords(t, runStrategy(t, scfg, splits, partition.StrategyHash, sk, nil))
	for _, wrap := range []func(*mr.Job) *mr.Job{
		func(j *mr.Job) *mr.Job { return anticombine.Wrap(j, anticombine.Adaptive0()) },
		func(j *mr.Job) *mr.Job { return anticombine.Wrap(j, anticombine.AdaptiveInf()) },
	} {
		got := sortedRecords(t, runStrategy(t, scfg, splits, partition.StrategySplit, sk, wrap))
		if len(got) != len(want) {
			t.Fatalf("anticombine-wrapped split: %d records, want %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("anticombine-wrapped split record %d = %q=%q, want %q=%q",
					i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

func TestSplitBalancesHeavyHitter(t *testing.T) {
	// Default skewagg: top key carries well over half the output.
	scfg := skewagg.Config{Records: 6000, Reducers: 8, Seed: 5}
	gen := skewagg.NewGen(scfg)
	splits := skewagg.Splits(gen, 4)
	sk, err := partition.Sample(skewagg.NewJob(scfg), splits)
	if err != nil {
		t.Fatal(err)
	}

	hashRes := runStrategy(t, scfg, splits, partition.StrategyHash, sk, nil)
	hashSkew := partition.SkewRatio(hashRes.ShufflePerPartition)
	if hashSkew < 3 {
		t.Fatalf("hash skew %.2f, expected the Zipfian top key to overload one reducer (>= 3x)", hashSkew)
	}

	splitRes := runStrategy(t, scfg, splits, partition.StrategySplit, sk, nil)
	splitSkew := partition.SkewRatio(splitRes.ShufflePerPartition)
	if splitSkew > 1.25 {
		t.Fatalf("split skew %.2f, want <= 1.25", splitSkew)
	}
}

func TestSplitJobRejectsBadJobs(t *testing.T) {
	sk := partition.NewSketch()
	sk.Add([]byte("hot"), 1000, 10)
	sk.Add([]byte("cold"), 10, 1)
	plan, err := partition.BuildSplit(sk, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	job := skewagg.NewJob(skewagg.Config{})
	if _, err := partition.SplitJob(job, plan, nil); err == nil {
		t.Fatal("SplitJob accepted a combiner-less job")
	}
	job2 := skewagg.NewJob(skewagg.Config{})
	job2.KeyCompare = bytesx.Bytes
	if _, err := partition.SplitJob(job2, plan, skewagg.NewCombiner); err == nil {
		t.Fatal("SplitJob accepted a custom comparator")
	}
}
