package monoid_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/monoid"
	"repro/internal/mr"
	"repro/internal/workloads/querysuggest"
	"repro/internal/workloads/skewagg"
	"repro/internal/workloads/wordcount"
)

// TestWordCountSumLaws property-tests wordcount's monoid over mixed raw
// ("1") and partial (decimal sum) values.
func TestWordCountSumLaws(t *testing.T) {
	err := monoid.CheckLaws(wordcount.Sum{}, monoid.LawConfig{
		Seed:   7,
		Trials: 200,
		Values: func(r *rand.Rand) [][]byte {
			n := 1 + r.Intn(8)
			vals := make([][]byte, n)
			for i := range vals {
				if r.Intn(2) == 0 {
					vals[i] = []byte("1")
				} else {
					vals[i] = []byte(strconv.FormatUint(uint64(r.Intn(1_000_000)), 10))
				}
			}
			return vals
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSkewAggLaws property-tests skewagg's (count, sum, xor) monoid
// over mixed raw records and encoded partials.
func TestSkewAggLaws(t *testing.T) {
	err := monoid.CheckLaws(skewagg.Agg{}, monoid.LawConfig{
		Seed:   11,
		Trials: 200,
		Values: func(r *rand.Rand) [][]byte {
			n := 1 + r.Intn(6)
			vals := make([][]byte, n)
			for i := range vals {
				if r.Intn(3) == 0 {
					vals[i] = []byte(fmt.Sprintf("a:%d:%d:%016x", r.Intn(1000), r.Int63n(1<<40), r.Uint64()))
				} else {
					vals[i] = []byte(fmt.Sprintf("%d:payload%d", r.Intn(1000), r.Intn(1<<20)))
				}
			}
			return vals
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuerySuggestCountsLaws property-tests querysuggest's per-query
// count-table monoid — a multi-record state, exercising EmitState's
// deterministic ordering.
func TestQuerySuggestCountsLaws(t *testing.T) {
	queries := []string{"go", "goat", "gopher", "golang", "gold", "golf"}
	err := monoid.CheckLaws(querysuggest.Counts{}, monoid.LawConfig{
		Seed:   13,
		Trials: 200,
		Key:    func(r *rand.Rand) []byte { return []byte("go") },
		Values: func(r *rand.Rand) [][]byte {
			n := 1 + r.Intn(8)
			vals := make([][]byte, n)
			for i := range vals {
				q := queries[r.Intn(len(queries))]
				vals[i] = querysuggest.EncodeValue(1+uint64(r.Intn(50)), []byte(q))
			}
			return vals
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// firstMonoid keeps the first value — associative and left-identity-
// less: e·a = a holds but only because identity is special-cased wrong.
type firstMonoid struct{}

func (firstMonoid) Identity() []byte { return nil }
func (firstMonoid) Absorb(s []byte, v []byte) ([]byte, error) {
	if s == nil {
		return append([]byte(nil), v...), nil
	}
	return s, nil
}
func (firstMonoid) Emit(key []byte, s []byte, out mr.Emitter) error {
	return out.Emit(key, s)
}

// meanMonoid averages: its state is a sum and a count, it emits the
// mean and absorbs one number as one more value. Absorbing a partial
// mean weighs it as a single value, so the combiner it derives computes
// wrong means: Lin's textbook non-monoid. It has no Merge to break, and
// every law but partial aggregation holds.
type meanMonoid struct{}

type meanState struct{ sum, n float64 }

func (meanMonoid) Identity() meanState { return meanState{} }
func (meanMonoid) Absorb(s meanState, v []byte) (meanState, error) {
	x, err := strconv.ParseFloat(string(v), 64)
	return meanState{s.sum + x, s.n + 1}, err
}
func (meanMonoid) Emit(key []byte, s meanState, out mr.Emitter) error {
	if s.n == 0 {
		return nil
	}
	return out.Emit(key, strconv.AppendFloat(nil, s.sum/s.n, 'g', -1, 64))
}

// offSizeMonoid is wordcount.Sum declaring a Size one byte over what
// its Emit writes.
type offSizeMonoid struct{ wordcount.Sum }

func (offSizeMonoid) Size(s uint64) int { return len(strconv.FormatUint(s, 10)) + 1 }

// TestCheckLawsCatchesViolations proves the checker actually rejects
// broken algebras instead of rubber-stamping them.
func TestCheckLawsCatchesViolations(t *testing.T) {
	decimalValues := func(r *rand.Rand) [][]byte {
		n := 1 + r.Intn(4)
		vals := make([][]byte, n)
		for i := range vals {
			vals[i] = []byte(strconv.Itoa(1 + r.Intn(100)))
		}
		return vals
	}
	// A mean absorbs its partials as single values: partial aggregation
	// is the law that fails.
	if err := monoid.CheckLaws(meanMonoid{}, monoid.LawConfig{Values: decimalValues}); err == nil || !strings.Contains(err.Error(), "partial aggregation") {
		t.Fatalf("expected a partial aggregation violation, got: %v", err)
	}
	// first-wins aggregates partials but is not commutative:
	// commutativity must be the law that fails.
	err := monoid.CheckLaws(firstMonoid{}, monoid.LawConfig{
		Values: func(r *rand.Rand) [][]byte {
			return [][]byte{[]byte(fmt.Sprintf("v%d", r.Intn(1000)))}
		},
	})
	if err == nil {
		t.Fatal("CheckLaws accepted a non-commutative monoid")
	}
	if !strings.Contains(err.Error(), "commutativity") {
		t.Fatalf("expected commutativity violation, got: %v", err)
	}
	// A Size that misstates the encoding would let a key table's charge
	// drift from the bytes its spills write.
	err = monoid.CheckLaws(offSizeMonoid{}, monoid.LawConfig{Values: decimalValues})
	if err == nil || !strings.Contains(err.Error(), "Size law") {
		t.Fatalf("expected a Size violation, got: %v", err)
	}
}

// TestDerivedCombinerMatchesHandWritten asserts the monoid-derived
// combiner reproduces the historical hand-written combiner output
// byte-for-byte on a real group.
func TestDerivedCombinerMatchesHandWritten(t *testing.T) {
	// wordcount: ["1" "1" "3"] -> "5"
	red := monoid.Combiner(wordcount.Sum{})()
	var got []mr.Record
	out := mr.EmitterFunc(func(k, v []byte) error {
		got = append(got, mr.Record{Key: append([]byte(nil), k...), Value: append([]byte(nil), v...)})
		return nil
	})
	if err := red.Reduce([]byte("w"), sliceIter{vals: [][]byte{[]byte("1"), []byte("1"), []byte("3")}}.iter(), out); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0].Value) != "5" {
		t.Fatalf("derived wordcount combiner: got %v", got)
	}

	// querysuggest: duplicate queries fold into sorted aggregates.
	got = nil
	qred := monoid.Combiner(querysuggest.Counts{})()
	vals := [][]byte{
		querysuggest.EncodeValue(1, []byte("zeta")),
		querysuggest.EncodeValue(1, []byte("alpha")),
		querysuggest.EncodeValue(2, []byte("zeta")),
	}
	if err := qred.Reduce([]byte("p"), sliceIter{vals: vals}.iter(), out); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("expected 2 aggregate records, got %d", len(got))
	}
	c0, q0, _ := querysuggest.DecodeValue(got[0].Value)
	c1, q1, _ := querysuggest.DecodeValue(got[1].Value)
	if string(q0) != "alpha" || c0 != 1 || string(q1) != "zeta" || c1 != 3 {
		t.Fatalf("unexpected aggregates: %s=%d %s=%d", q0, c0, q1, c1)
	}
}

type sliceIter struct{ vals [][]byte }

func (s sliceIter) iter() mr.ValueIter { return &sliceIterState{vals: s.vals} }

type sliceIterState struct {
	vals [][]byte
	i    int
}

func (s *sliceIterState) Next() ([]byte, bool) {
	if s.i >= len(s.vals) {
		return nil, false
	}
	v := s.vals[s.i]
	s.i++
	return v, true
}
