package wordcount

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/mr"
)

// TestMapTokenisesLikeStringsFields pins the in-place tokeniser to the
// token boundaries of strings.Fields — Unicode white space, multi-byte
// spaces next to ASCII ones, invalid UTF-8 (which is not space) — and
// checks that a Map call allocates nothing.
func TestMapTokenisesLikeStringsFields(t *testing.T) {
	lines := []string{
		"", " ", "a", " a ", "a b", "a  b\tc\nd\ve\ff\rg",
		"nbsp\u00a0here", "nel\u0085here", "em\u2003space", "ideographic\u3000space", "line\u2028sep",
		"zero\u200bwidth is not space", "\u00e9 \u00e8\u00a0\u00ea", "\u2003lead", "trail\u3000",
		"bad\x85byte", "bad\xa0byte", "\xc2", "trunc\xe2\x80", "\xff \xfe", "a\xc2 b",
	}
	rng := rand.New(rand.NewSource(3))
	alphabet := []string{"a", "b", " ", "\t", "\u00a0", "\u2003", "\x85", "\xc2", "\u00e9", "\n"}
	for i := 0; i < 500; i++ {
		var b strings.Builder
		for j, n := 0, rng.Intn(12); j < n; j++ {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		lines = append(lines, b.String())
	}
	var got []string
	out := mr.EmitterFunc(func(k, v []byte) error {
		if string(v) != "1" {
			t.Fatalf("value %q, want 1", v)
		}
		got = append(got, string(k))
		return nil
	})
	for _, line := range lines {
		got = got[:0]
		if err := (mapper{}).Map(nil, []byte(line), out); err != nil {
			t.Fatal(err)
		}
		if want := strings.Fields(line); !slices.Equal(got, want) {
			t.Errorf("Map(%q) emitted %q, strings.Fields gives %q", line, got, want)
		}
	}

	line := []byte("the quick brown fox jumps over the lazy dog")
	var discard mr.Emitter = mr.EmitterFunc(func(k, v []byte) error { return nil })
	if allocs := testing.AllocsPerRun(100, func() { (mapper{}).Map(nil, line, discard) }); allocs != 0 {
		t.Errorf("a Map call costs %v allocations, want 0", allocs)
	}
}
