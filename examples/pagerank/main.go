// PageRank over a synthetic power-law web graph (§7.7.2): five
// MapReduce iterations, with every iteration's job Anti-Combined. The
// skewed out-degree distribution is where Anti-Combining shines — a
// hub's thousands of identical rank contributions collapse into one
// EagerSH record per reduce task, or the node record ships once via
// LazySH.
package main

import (
	"fmt"
	"math"
	"os"
	"sort"

	"repro"
	"repro/internal/datagen"
	"repro/internal/workloads/pagerank"
)

func main() {
	g := datagen.NewGraph(datagen.GraphConfig{Seed: 7, Nodes: 5000, AvgOutDegree: 10})
	fmt.Printf("graph: %d nodes, %d edges, max out-degree %d\n",
		len(g.Out), g.Edges(), g.MaxOutDegree())

	const iterations = 5
	run := func(anti bool) (*repro.Result, int64) {
		recs := pagerank.InitialRecords(g)
		var res *repro.Result
		var shuffle int64
		for i := 0; i < iterations; i++ {
			// The rank job without its map-side combiner, so the
			// original ships every contribution.
			job := pagerank.NewRankJob(len(g.Out), 6)
			job.NewCombiner = nil
			if anti {
				job = repro.AntiCombine(job, repro.AdaptiveInf())
			}
			var err error
			res, err = repro.Run(job, repro.SplitRecords(recs, 6))
			if err != nil {
				panic(err)
			}
			shuffle += res.Stats.ShuffleBytes
			recs = res.SortedOutput()
		}
		return res, shuffle
	}

	origRes, origShuffle := run(false)
	antiRes, antiShuffle := run(true)

	origRanks, err := pagerank.RanksFromParts(origRes.Output)
	if err != nil {
		panic(err)
	}
	antiRanks, err := pagerank.RanksFromParts(antiRes.Output)
	if err != nil {
		panic(err)
	}

	// Summation order differs between the runs, so compare within
	// floating-point tolerance.
	matches := func(node int32) bool {
		r, ok := origRanks[node]
		return ok && math.Abs(r-antiRanks[node]) < 1e-12
	}
	type nr struct {
		node int32
		rank float64
	}
	var top []nr
	agree := len(origRanks) == len(antiRanks)
	for n, r := range antiRanks {
		top = append(top, nr{n, r})
		agree = agree && matches(n)
	}
	sort.Slice(top, func(i, j int) bool { return top[i].rank > top[j].rank })
	fmt.Println("\ntop 10 nodes by PageRank (Anti-Combined run):")
	for _, e := range top[:10] {
		fmt.Printf("  node %5d  rank %.6f  (matches original: %v)\n",
			e.node, e.rank, matches(e.node))
	}

	fmt.Printf("\nshuffle over %d iterations: original %d bytes, anti-combined %d bytes (%.1fx less)\n",
		iterations, origShuffle, antiShuffle, float64(origShuffle)/float64(antiShuffle))
	fmt.Printf("all %d ranks agree: %v\n", len(antiRanks), agree)
	if !agree {
		os.Exit(1)
	}
}
