package thetajoin

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/anticombine"
	"repro/internal/datagen"
	"repro/internal/mr"
)

func testCloud() *datagen.Cloud {
	return datagen.NewCloud(datagen.CloudConfig{
		Seed: 41, Records: 400, Days: 5, Stations: 8,
	})
}

func joinResult(t *testing.T, job *mr.Job, cloud *datagen.Cloud) map[string]int {
	t.Helper()
	res, err := mr.Run(job, Splits(cloud, 4))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, r := range res.SortedOutput() {
		got[string(r.Value)]++
	}
	return got
}

func assertJoinEqual(t *testing.T, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("distinct rows: got %d, want %d", len(got), len(want))
	}
	for row, n := range want {
		if got[row] != n {
			t.Errorf("row %q: got %d, want %d", row, got[row], n)
		}
	}
}

func TestJoinMatchesReference(t *testing.T) {
	cloud := testCloud()
	want := Reference(cloud, 100)
	if len(want) == 0 {
		t.Fatal("reference join is empty; generator parameters too sparse")
	}
	got := joinResult(t, NewJob(Config{Rows: 4, Cols: 4, Reducers: 5}), cloud)
	assertJoinEqual(t, got, want)
}

func TestJoinGridShapesAgree(t *testing.T) {
	// Every (s, t) pair must meet in exactly one region regardless of
	// the grid tiling.
	cloud := testCloud()
	want := Reference(cloud, 100)
	for _, grid := range []Config{
		{Rows: 1, Cols: 1, Reducers: 1},
		{Rows: 2, Cols: 8, Reducers: 4},
		{Rows: 8, Cols: 2, Reducers: 16},
	} {
		assertJoinEqual(t, joinResult(t, NewJob(grid), cloud), want)
	}
}

func TestAntiCombinedMatchesReference(t *testing.T) {
	cloud := testCloud()
	want := Reference(cloud, 100)
	for _, tc := range []struct {
		name string
		opts anticombine.Options
	}{
		{"adaptive", anticombine.AdaptiveInf()},
		{"eager", anticombine.Adaptive0()},
		{"lazy", anticombine.Options{Strategy: anticombine.LazyOnly}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := anticombine.Wrap(NewJob(Config{Rows: 4, Cols: 4, Reducers: 5}), tc.opts)
			assertJoinEqual(t, joinResult(t, job, cloud), want)
		})
	}
}

func TestReplicationFactor(t *testing.T) {
	// 1-Bucket-Theta replicates each tuple Rows + Cols times — the data
	// explosion (~67× in the paper) that Anti-Combining attacks.
	cloud := testCloud()
	cfg := Config{Rows: 6, Cols: 5, Reducers: 6}
	res, err := mr.Run(NewJob(cfg), Splits(cloud, 4))
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := int64(cloud.Len()) * int64(cfg.Rows+cfg.Cols)
	if res.Stats.MapOutputRecords != wantRecords {
		t.Errorf("map output records = %d, want %d", res.Stats.MapOutputRecords, wantRecords)
	}
}

func TestAdaptivePrefersLazy(t *testing.T) {
	// §7.7.3: "AdaptiveSH ended up choosing LazySH encoding for all map
	// output records" — with multiple regions per reduce task, shipping
	// the input once per task always beats carrying region key sets.
	cloud := testCloud()
	job := anticombine.Wrap(NewJob(Config{Rows: 8, Cols: 8, Reducers: 4}), anticombine.AdaptiveInf())
	res, err := mr.Run(job, Splits(cloud, 4))
	if err != nil {
		t.Fatal(err)
	}
	lazy := res.Stats.Extra[anticombine.CounterLazyRecords]
	eager := res.Stats.Extra[anticombine.CounterEagerRecords]
	plain := res.Stats.Extra[anticombine.CounterPlainRecords]
	if lazy == 0 || lazy < (eager+plain)*10 {
		t.Errorf("adaptive choices: lazy=%d eager=%d plain=%d; lazy should dominate",
			lazy, eager, plain)
	}
}

func TestRegionKeyDeterminism(t *testing.T) {
	if string(RegionKey(7)) != string(RegionKey(7)) {
		t.Error("RegionKey must be deterministic")
	}
	if string(RegionKey(1)) >= string(RegionKey(300)) {
		t.Error("RegionKey ordering broken")
	}
}

func TestSubGridFitsKeyByte(t *testing.T) {
	// A region hot enough for a share above 256 used to get a 15×20
	// sub-grid whose one-byte sub-index wrapped, so sub-regions 256..299
	// collided with 0..43 and the join emitted duplicate rows.
	cloud := datagen.NewCloud(datagen.CloudConfig{Seed: 41, Records: 300, Days: 2, Stations: 3})
	cfg := Config{Rows: 2, Cols: 2, Reducers: 300}
	cfg.Shares = BuildSharesPlan(cfg, []int64{1 << 30, 1, 1, 1}, cfg.Reducers, 1)
	if sg := cfg.Shares.subOf(0); sg == nil || sg.rows*sg.cols != 256 {
		t.Errorf("hot region's sub-grid is not 256 cells: %+v", sg)
	}
	assertJoinEqual(t, joinResult(t, NewJob(cfg), cloud), Reference(cloud, 100))
}

// nestedLoopReduce is the region join as a nested loop over S × T in
// arrival order: the sequence the bucketed join must reproduce.
func nestedLoopReduce(key []byte, vals [][]byte, band int32) []string {
	var ss, ts []tuple
	for _, v := range vals {
		d, lon, lat, _ := datagen.ParseCloudLine(v[1:])
		if v[0] == 'S' {
			ss = append(ss, tuple{d, lon, lat})
		} else {
			ts = append(ts, tuple{d, lon, lat})
		}
	}
	var out []string
	for _, s := range ss {
		for _, t := range ts {
			if s.date == t.date && s.lon == t.lon && abs32(s.lat-t.lat) <= band {
				out = append(out, fmt.Sprintf("%x %d,%d,%d,%d", key[:4], s.date, s.lon, s.lat, t.lat))
			}
		}
	}
	return out
}

// FuzzThetaReduce holds the bucketed band join to the nested loop, in
// content and order. Each pair of input bytes is one tuple: the first
// picks its role and one of 4 dates × 4 longitudes (so (date, lon)
// pairs repeat), the second is its latitude, negative or not, within a
// band of 1..64 tenths, so |Δlat| == band occurs. The reducer joins the
// region twice, so the second pass runs on reused buffers.
func FuzzThetaReduce(f *testing.F) {
	f.Add(false, uint8(9), []byte{0, 0, 1, 10, 0, 246, 1, 0})
	f.Add(true, uint8(0), []byte{0, 1, 1, 2, 0x21, 3, 0x20, 130, 0x41, 127})
	f.Add(false, uint8(63), []byte{0, 0, 2, 5, 4, 6})    // S only
	f.Add(true, uint8(63), []byte{1, 0, 3, 5, 5, 6})     // T only
	f.Add(false, uint8(1), []byte{})                     // empty region
	f.Add(true, uint8(19), []byte{7, 30, 6, 10, 7, 236}) // |Δlat| == band
	f.Fuzz(func(t *testing.T, fiveByteKey bool, band uint8, data []byte) {
		cfg := Config{BandTenths: int32(band%64) + 1}
		key := []byte{0, 0, 1, 2}
		if fiveByteKey {
			key = append(key, 9)
		}
		var vals [][]byte
		for i := 0; i+1 < len(data); i += 2 {
			role := "ST"[data[i]&1]
			date := 20110301 + int(data[i]>>1&3)
			lon := 900 * int(data[i]>>3&3)
			lat := int(int8(data[i+1]))
			vals = append(vals, []byte(fmt.Sprintf("%c%d,%d,%d,5,6", role, date, lon, lat)))
		}
		want := nestedLoopReduce(key, vals, cfg.BandTenths)
		r := NewJob(cfg).NewReducer()
		for pass := 0; pass < 2; pass++ {
			var got []string
			err := r.Reduce(key, &sliceIter{vals: vals}, mr.EmitterFunc(func(k, v []byte) error {
				got = append(got, fmt.Sprintf("%x %s", k, v))
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: bucketed join\n%q\nnested loop\n%q", pass, got, want)
			}
		}
	})
}

func TestMapDoesNotAllocate(t *testing.T) {
	line := []byte(testCloud().Record(0).Line())
	tiled := Config{Rows: 2, Cols: 2, Reducers: 8}
	// Every region outweighs the per-reducer target, so every emit of
	// the tiled mapper goes to a sub-region.
	tiled.Shares = BuildSharesPlan(tiled, []int64{100, 100, 100, 100}, tiled.Reducers, 1)
	if tiled.Shares.SubTiled() != 4 {
		t.Fatalf("sub-tiled regions = %d, want 4", tiled.Shares.SubTiled())
	}
	for name, cfg := range map[string]Config{"grid": {Rows: 33, Cols: 33}, "subtiled": tiled} {
		m := NewJob(cfg).NewMapper()
		n := testing.AllocsPerRun(50, func() {
			if err := m.Map(nil, line, discard); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%s: Map allocates %v times per call, want 0", name, n)
		}
	}
}
