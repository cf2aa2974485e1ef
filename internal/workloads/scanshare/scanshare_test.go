package scanshare

import (
	"math/rand"
	"testing"

	"repro/internal/anticombine"
	"repro/internal/datagen"
	"repro/internal/monoid"
	"repro/internal/mr"
)

func testCloud() *datagen.Cloud {
	return datagen.NewCloud(datagen.CloudConfig{Seed: 81, Records: 600, Days: 6, Stations: 10})
}

func runAndCheck(t *testing.T, job *mr.Job, cloud *datagen.Cloud, cfg Config) *mr.Result {
	t.Helper()
	res, err := mr.Run(job, Splits(cloud, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(cloud, cfg)
	got := map[string]string{}
	for _, r := range res.SortedOutput() {
		got[string(r.Key)] = string(r.Value)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("group %q: got %q, want %q", k, got[k], v)
		}
	}
	return res
}

func TestMatchesReference(t *testing.T) {
	cloud := testCloud()
	for _, cfg := range []Config{
		{Queries: 6, Reducers: 4},
		{Queries: 12, Reducers: 5, SelectivityPct: 40},
		{Queries: 1, Reducers: 3},
	} {
		runAndCheck(t, NewJob(cfg), cloud, cfg)
	}
}

func TestAntiCombinedMatchesReference(t *testing.T) {
	cloud := testCloud()
	cfg := Config{Queries: 10, Reducers: 4, SelectivityPct: 70}
	for _, opts := range []anticombine.Options{
		anticombine.AdaptiveInf(),
		anticombine.Adaptive0(),
		{Strategy: anticombine.LazyOnly},
	} {
		runAndCheck(t, anticombine.Wrap(NewJob(cfg), opts), cloud, cfg)
	}
}

func TestSharingCollapsesQueryDuplication(t *testing.T) {
	// §1's claim: the shared operator's record is duplicated once per
	// downstream query; Anti-Combining collapses those duplicates to at
	// most one record per touched reduce task.
	cloud := testCloud()
	cfg := Config{Queries: 16, Reducers: 4}
	orig, err := mr.Run(NewJob(cfg), Splits(cloud, 4))
	if err != nil {
		t.Fatal(err)
	}
	anti, err := mr.Run(anticombine.Wrap(NewJob(cfg), anticombine.AdaptiveInf()), Splits(cloud, 4))
	if err != nil {
		t.Fatal(err)
	}
	if orig.Stats.MapOutputRecords != int64(cloud.Len()*cfg.Queries) {
		t.Errorf("original records = %d, want %d", orig.Stats.MapOutputRecords,
			cloud.Len()*cfg.Queries)
	}
	// With 16 queries over 4 reducers, at most 4 records per input.
	if anti.Stats.MapOutputRecords > int64(cloud.Len()*cfg.Reducers) {
		t.Errorf("anti records = %d, want <= %d", anti.Stats.MapOutputRecords,
			cloud.Len()*cfg.Reducers)
	}
	if anti.Stats.MapOutputBytes*3 > orig.Stats.MapOutputBytes {
		t.Errorf("anti bytes %d not well below original %d",
			anti.Stats.MapOutputBytes, orig.Stats.MapOutputBytes)
	}
}

func TestSelectivityIsDeterministic(t *testing.T) {
	cfg := Config{Queries: 4, SelectivityPct: 50}.normalized()
	line := []byte("20110301,720,100,1,2,3")
	for q := 0; q < 4; q++ {
		if selected(cfg, q, line) != selected(cfg, q, line) {
			t.Fatal("selection must be deterministic for LazySH")
		}
	}
}

// TestCountSumLaws runs the monoid laws over Cloud lines, the values
// the map phase emits, and checks that a partial never parses as one.
func TestCountSumLaws(t *testing.T) {
	cloud := testCloud()
	err := monoid.CheckLaws(CountSum{}, monoid.LawConfig{
		Seed:   3,
		Trials: 200,
		Values: func(r *rand.Rand) [][]byte {
			vals := make([][]byte, 1+r.Intn(6))
			for i := range vals {
				vals[i] = []byte(cloud.Record(r.Intn(cloud.Len())).Line())
			}
			return vals
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := CountSum{}.Absorb(CountSum{}.Identity(), []byte(cloud.Record(0).Line()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := monoid.EmitRecords(CountSum{}, []byte("k"), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := datagen.ParseCloudLine(recs[0].Value); ok {
		t.Fatalf("partial %q parses as a Cloud line", recs[0].Value)
	}
}
