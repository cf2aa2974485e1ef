package wordcount

import (
	"strconv"
	"testing"

	"repro/internal/anticombine"
	"repro/internal/datagen"
	"repro/internal/mr"
)

func testText() *datagen.RandomText {
	return datagen.NewRandomText(datagen.RandomTextConfig{
		Seed: 21, Lines: 300, WordsPerLine: 15, VocabWords: 200,
	})
}

func check(t *testing.T, res *mr.Result, text *datagen.RandomText) {
	t.Helper()
	want := Reference(text)
	got := make(map[string]uint64)
	for _, r := range res.SortedOutput() {
		n, err := strconv.ParseUint(string(r.Value), 10, 64)
		if err != nil {
			t.Fatalf("bad count %q", r.Value)
		}
		got[string(r.Key)] = n
	}
	if len(got) != len(want) {
		t.Fatalf("got %d words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("%q = %d, want %d", w, got[w], n)
		}
	}
}

func TestEndToEnd(t *testing.T) {
	text := testText()
	res, err := mr.Run(NewJob(4), Splits(text, 5))
	if err != nil {
		t.Fatal(err)
	}
	check(t, res, text)
	if res.Stats.CombineInputRecords == 0 {
		t.Error("combiner should have run")
	}
}

func TestAntiCombinedWithMapCombiner(t *testing.T) {
	// §7.7.1's configuration: effective combiner kept in the map phase
	// (C=1), operating on encoded records via the transformed combiner.
	text := testText()
	job := anticombine.Wrap(NewJob(4), anticombine.Options{
		Strategy:    anticombine.Adaptive,
		MapCombiner: true,
	})
	res, err := mr.Run(job, Splits(text, 5))
	if err != nil {
		t.Fatal(err)
	}
	check(t, res, text)

	// Encoded map output must have fewer records than the original map
	// would emit (the paper's 7× pre-combine reduction).
	orig := res.Stats.Extra[anticombine.CounterOrigMapRecords]
	if res.Stats.MapOutputRecords*2 > orig {
		t.Errorf("encoded records %d not well below original %d",
			res.Stats.MapOutputRecords, orig)
	}
}

func TestAntiCombinedStrategies(t *testing.T) {
	text := testText()
	for _, opts := range []anticombine.Options{
		anticombine.Adaptive0(),
		{Strategy: anticombine.LazyOnly},
	} {
		res, err := mr.Run(anticombine.Wrap(NewJob(4), opts), Splits(text, 5))
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, text)
	}
}

// TestSumEmitDecimal: Emit renders every count as strconv does, across
// the table's edges.
func TestSumEmitDecimal(t *testing.T) {
	for _, n := range []uint64{0, 1, 9, 10, 11, 99, 100, 999, 1000, 4321, 9999, 10000, 10001, 1<<64 - 1} {
		var got []byte
		err := Sum{}.Emit([]byte("k"), n, mr.EmitterFunc(func(_, v []byte) error {
			got = append([]byte(nil), v...)
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		if want := strconv.FormatUint(n, 10); string(got) != want {
			t.Errorf("Emit(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestSumAbsorbMatchesParseUint: Absorb accepts exactly what
// strconv.ParseUint(v, 10, 64) accepts, with its value.
func TestSumAbsorbMatchesParseUint(t *testing.T) {
	for _, v := range []string{
		"", "0", "1", "0042", "9999999999999999999", "18446744073709551615",
		"18446744073709551616", "99999999999999999999", "+1", "-1", "1a", " 1", "1_0", "0x1",
	} {
		got, err := Sum{}.Absorb(0, []byte(v))
		want, werr := strconv.ParseUint(v, 10, 64)
		if (err == nil) != (werr == nil) || err == nil && got != want {
			t.Errorf("Absorb(%q) = %d, %v; ParseUint = %d, %v", v, got, err, want, werr)
		}
	}
}
