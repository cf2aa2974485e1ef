package skewagg

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/anticombine"
	"repro/internal/monoid"
	"repro/internal/mr"
)

func testGen() *Gen {
	return NewGen(Config{Records: 3000, Keys: 60, Reducers: 4, Seed: 17})
}

// TestAggLaws property-tests the aggregate over what the workload
// really feeds it: the generator's own record values mixed with
// partials in Emit's encoding. Agg claims commutativity — heavy
// -hitter splitting recombines partials in arrival order — so the claim
// itself is asserted, which is what makes CheckLaws test it.
func TestAggLaws(t *testing.T) {
	if _, ok := monoid.Monoid[aggState](Agg{}).(monoid.Commutative[aggState]); !ok {
		t.Fatal("Agg no longer claims commutativity; partition.SplitJob relies on it")
	}
	g := testGen()
	err := monoid.CheckLaws(Agg{}, monoid.LawConfig{
		Seed:   5,
		Trials: 200,
		Values: func(r *rand.Rand) [][]byte {
			vals := make([][]byte, 1+r.Intn(6))
			for i := range vals {
				line := []byte(g.Line(r.Intn(g.Len())))
				vals[i] = line[bytes.IndexByte(line, '\t')+1:]
				if r.Intn(3) == 0 {
					// A partial: what a combiner would have made of it.
					st, err := Agg{}.Absorb(Agg{}.Identity(), vals[i])
					if err != nil {
						t.Fatal(err)
					}
					recs, err := monoid.EmitRecords(Agg{}, []byte("k"), st)
					if err != nil {
						t.Fatal(err)
					}
					vals[i] = recs[0].Value
				}
			}
			return vals
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestJobMatchesReference runs the aggregation with and without its
// map-side combiner, as written and anti-combined, against the naive
// in-memory aggregate.
func TestJobMatchesReference(t *testing.T) {
	g := testGen()
	want := Reference(g)
	for _, combiner := range []bool{false, true} {
		anti := func(opts anticombine.Options) func(*mr.Job) *mr.Job {
			opts.MapCombiner = combiner
			return func(j *mr.Job) *mr.Job { return anticombine.Wrap(j, opts) }
		}
		for _, tc := range []struct {
			name string
			wrap func(*mr.Job) *mr.Job
		}{
			{"original", func(j *mr.Job) *mr.Job { return j }},
			{"adaptive", anti(anticombine.AdaptiveInf())},
			{"eager", anti(anticombine.Adaptive0())},
			{"lazy", anti(anticombine.Options{Strategy: anticombine.LazyOnly})},
		} {
			t.Run(fmt.Sprintf("combiner=%v/%s", combiner, tc.name), func(t *testing.T) {
				job := tc.wrap(NewJob(Config{Reducers: 4, MapCombiner: combiner}))
				job.SortBufferBytes = 16 << 10 // several spills per map task
				res, err := mr.Run(job, Splits(g, 4))
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]string{}
				for _, r := range res.SortedOutput() {
					if _, dup := got[string(r.Key)]; dup {
						t.Fatalf("key %s reduced twice", r.Key)
					}
					got[string(r.Key)] = string(r.Value)
				}
				if len(got) != len(want) {
					t.Fatalf("got %d keys, want %d", len(got), len(want))
				}
				for k, v := range want {
					if got[k] != v {
						t.Errorf("key %s: got %s, want %s", k, got[k], v)
					}
				}
			})
		}
	}
}
