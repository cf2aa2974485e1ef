package extremes

import (
	"testing"

	"repro/internal/anticombine"
	"repro/internal/datagen"
	"repro/internal/mr"
)

func testCloud() *datagen.Cloud {
	return datagen.NewCloud(datagen.CloudConfig{Seed: 71, Records: 2000, Days: 12, Stations: 15})
}

func check(t *testing.T, job *mr.Job, cloud *datagen.Cloud) {
	t.Helper()
	res, err := mr.Run(job, Splits(cloud, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(cloud)
	got := map[string]string{}
	for _, r := range res.SortedOutput() {
		if _, dup := got[string(r.Key)]; dup {
			t.Fatalf("date %s reduced twice", r.Key)
		}
		got[string(r.Key)] = string(r.Value)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d dates, want %d", len(got), len(want))
	}
	for d, v := range want {
		if got[d] != v {
			t.Errorf("date %s: got %s, want %s", d, got[d], v)
		}
	}
}

func TestSecondarySortMatchesReference(t *testing.T) {
	check(t, NewJob(4), testCloud())
}

func TestAntiCombinedPreservesSecondarySort(t *testing.T) {
	// The reducer *errors* if values arrive out of latitude order, so
	// these runs prove the Shared structure honors the grouping
	// comparator and §6.1's key-order guarantee, including when Shared
	// spills to disk.
	cloud := testCloud()
	for _, tc := range []struct {
		name string
		opts anticombine.Options
	}{
		{"adaptive", anticombine.AdaptiveInf()},
		{"eager", anticombine.Adaptive0()},
		{"lazy", anticombine.Options{Strategy: anticombine.LazyOnly}},
		{"tinyShared", anticombine.Options{
			Strategy:            anticombine.LazyOnly,
			SharedMemLimitBytes: 512,
			SharedMergeFactor:   2,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check(t, anticombine.Wrap(NewJob(4), tc.opts), cloud)
		})
	}
}

func TestKeyCodec(t *testing.T) {
	k := Key(20110305, -877)
	if KeyDate(k) != 20110305 {
		t.Errorf("round trip: date=%d", KeyDate(k))
	}
	// Latitude ordering must survive the unsigned bias.
	if string(Key(1, -900)) >= string(Key(1, 900)) {
		t.Error("negative latitudes must sort below positive")
	}
	if string(Key(1, 900)) >= string(Key(2, -900)) {
		t.Error("date must dominate latitude")
	}
}
