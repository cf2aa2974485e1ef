package pagerank

import (
	"math"
	"testing"

	"repro/internal/anticombine"
	"repro/internal/bytesx"
	"repro/internal/datagen"
	"repro/internal/mr"
)

func testGraph() *datagen.Graph {
	return datagen.NewGraph(datagen.GraphConfig{Seed: 31, Nodes: 300, AvgOutDegree: 6})
}

// iterate runs n iterations of the rank job through the engine,
// optionally wrapping each iteration's job with Anti-Combining.
func iterate(t *testing.T, g *datagen.Graph, iters int, opts *anticombine.Options) map[int32]float64 {
	t.Helper()
	recs := InitialRecords(g)
	var res *mr.Result
	for i := 0; i < iters; i++ {
		job := NewRankJob(len(g.Out), 4)
		if opts != nil {
			job = anticombine.Wrap(job, *opts)
		}
		var err error
		res, err = mr.Run(job, mr.SplitRecords(recs, 4))
		if err != nil {
			t.Fatal(err)
		}
		recs = res.SortedOutput()
	}
	ranks, err := RanksFromParts(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	return ranks
}

func assertRanksClose(t *testing.T, got, want map[int32]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d nodes, want %d", len(got), len(want))
	}
	for node, w := range want {
		g, ok := got[node]
		if !ok {
			t.Fatalf("node %d missing", node)
		}
		if math.Abs(g-w) > 1e-9 {
			t.Errorf("node %d: rank %.12f, want %.12f", node, g, w)
		}
	}
}

func TestMatchesSequentialReference(t *testing.T) {
	g := testGraph()
	assertRanksClose(t, iterate(t, g, 3, nil), Reference(g, 3))
}

func TestAntiCombinedMatchesReference(t *testing.T) {
	g := testGraph()
	want := Reference(g, 3)
	for _, tc := range []struct {
		name string
		opts anticombine.Options
	}{
		{"adaptive", anticombine.AdaptiveInf()},
		{"eager", anticombine.Adaptive0()},
		{"lazy", anticombine.Options{Strategy: anticombine.LazyOnly}},
		// The reducer on Shared instead of the RankFold fold, with
		// the map-side combiner transformed too.
		{"shared", anticombine.Options{Strategy: anticombine.Adaptive, DisableSharedCombine: true, MapCombiner: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertRanksClose(t, iterate(t, g, 3, &tc.opts), want)
		})
	}
}

func TestRanksSumToOne(t *testing.T) {
	g := testGraph()
	ranks := Reference(g, 5)
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	// Dangling nodes leak mass every iteration (the standard
	// simplification this formulation shares with the paper's
	// description); the sum must stay positive and never exceed 1.
	if sum > 1.0001 || sum <= 0.01 {
		t.Errorf("rank mass = %f", sum)
	}
}

func TestStructCodec(t *testing.T) {
	adj := []int32{5, 0, 999999, 7}
	buf := EncodeStruct(0.125, adj)
	rank, got, err := DecodeStruct(buf)
	if err != nil || rank != 0.125 || len(got) != 4 {
		t.Fatalf("decode: %f %v %v", rank, got, err)
	}
	for i := range adj {
		if got[i] != adj[i] {
			t.Errorf("adj[%d] = %d, want %d", i, got[i], adj[i])
		}
	}
	if _, _, err := DecodeStruct([]byte{'R', 0}); err == nil {
		t.Error("wrong tag should fail")
	}
	// A corrupt adjacency is an error, never a panic or a huge
	// allocation: the count must fit the bytes that follow it.
	head := EncodeStruct(0.125, nil)[:9]
	for _, tc := range []struct {
		name string
		adj  []byte
	}{
		{"count 2^62", bytesx.AppendUvarint(nil, 1<<62)},
		{"count 2^32", bytesx.AppendUvarint(nil, 1<<32)},
		{"count past the entries", []byte{3, 1, 2}},
		{"truncated count", []byte{0x80}},
		{"truncated entry", []byte{1, 0xff}},
		{"no count", nil},
	} {
		buf := append(append([]byte(nil), head...), tc.adj...)
		if _, _, err := DecodeStruct(buf); err == nil {
			t.Errorf("%s: DecodeStruct accepted %x", tc.name, buf)
		}
	}
}

func TestNodeKeyOrdering(t *testing.T) {
	// Big-endian keys must sort numerically under byte comparison.
	if string(NodeKey(3)) >= string(NodeKey(200)) {
		t.Error("key ordering broken")
	}
	if NodeID(NodeKey(123456)) != 123456 {
		t.Error("NodeID round trip failed")
	}
}

func TestEagerSharesHubFanout(t *testing.T) {
	// A hub node's contributions all share one value; EagerSH must
	// shrink map output substantially on a skewed graph.
	g := testGraph()
	recs := InitialRecords(g)
	run := func(wrap bool) int64 {
		job := NewRankJob(len(g.Out), 4)
		if wrap {
			job = anticombine.Wrap(job, anticombine.Adaptive0())
		}
		res, err := mr.Run(job, mr.SplitRecords(recs, 4))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.MapOutputBytes
	}
	orig, anti := run(false), run(true)
	if anti*3 > orig*2 {
		t.Errorf("eager map output %d not meaningfully below original %d", anti, orig)
	}
}
