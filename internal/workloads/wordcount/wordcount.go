// Package wordcount implements the WordCount workload of §7.7.1: Map
// emits (word, 1) per word, a sum Combiner collapses counts per map
// task, Reduce totals the partial sums. Every Map output in a call
// shares the value "1", so Anti-Combining's EagerSH collapses a line's
// words per partition into one record even before the combiner runs.
package wordcount

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/datagen"
	"repro/internal/monoid"
	"repro/internal/mr"
)

type mapper struct{ mr.MapperBase }

// one is the count every word is emitted with. An Emitter copies what it
// keeps, so the words are emitted as views of the line and share this
// one value — Hadoop's WordCount likewise reuses its Text and
// IntWritable — and a Map call allocates nothing.
var one = []byte("1")

var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Map implements mr.Mapper over a line of text: one (word, 1) per
// maximal run of non-space bytes, with strings.Fields' notion of space
// (unicode.IsSpace; invalid UTF-8 is not space).
func (mapper) Map(key, value []byte, out mr.Emitter) error {
	start := -1 // of the word being scanned
	for i := 0; i < len(value); {
		space, size := asciiSpace[value[i]], 1
		if value[i] >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(value[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			if err := out.Emit(value[start:i], one); err != nil {
				return err
			}
			start = -1
		}
		i += size
	}
	if start >= 0 {
		return out.Emit(value[start:], one)
	}
	return nil
}

// Sum is WordCount's aggregation monoid: decimal counts under addition.
// Combiner and reducer are both derived from it.
type Sum struct{}

// Identity implements monoid.Monoid.
func (Sum) Identity() uint64 { return 0 }

// Absorb implements monoid.Monoid: values are decimal counts ("1" from
// the mapper, partial sums from earlier combiner passes).
func (Sum) Absorb(s uint64, value []byte) (uint64, error) {
	n, err := parseCount(value)
	if err != nil {
		return s, err
	}
	return s + n, nil
}

// parseCount is strconv.ParseUint(value, 10, 64) without converting
// value to a string: up to 19 digits cannot overflow, and anything else
// — longer, empty, or not all digits — is left to strconv, for its
// verdict and its error.
func parseCount(value []byte) (uint64, error) {
	if len(value) == 0 || len(value) > 19 {
		return strconv.ParseUint(string(value), 10, 64)
	}
	var n uint64
	for _, c := range value {
		if c < '0' || c > '9' {
			return strconv.ParseUint(string(value), 10, 64)
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

// decimals holds every count below 10 000 as four digits, so that Emit
// hands out a count's decimal form as a view, as Map shares one, instead
// of allocating it per key.
var decimals = func() []byte {
	b := make([]byte, 0, 4*10000)
	for n := 0; n < 10000; n++ {
		b = fmt.Appendf(b, "%04d", n)
	}
	return b
}()

// Emit implements monoid.Monoid.
func (Sum) Emit(key []byte, s uint64, out mr.Emitter) error {
	if s >= 10000 {
		return out.Emit(key, strconv.AppendUint(nil, s, 10))
	}
	lead := 3 // zeros before s's first digit
	for p := uint64(10); p <= s; p *= 10 {
		lead--
	}
	return out.Emit(key, decimals[4*s+uint64(lead):4*s+4:4*s+4])
}

// NewJob builds the WordCount job; combiner and reducer are both
// derived from the Sum monoid.
func NewJob(reducers int) *mr.Job {
	if reducers <= 0 {
		reducers = 8
	}
	return &mr.Job{
		Name:           "wordcount",
		NewMapper:      func() mr.Mapper { return mapper{} },
		NewReducer:     monoid.Reducer(Sum{}, nil),
		NewCombiner:    monoid.Combiner(Sum{}),
		NumReduceTasks: reducers,
		Deterministic:  true,
	}
}

// Splits renders random-text lines as in-memory splits.
func Splits(text *datagen.RandomText, numSplits int) []mr.Split {
	return mr.LineSplits(text.Len(), numSplits, text.Line)
}

// Reference computes exact word counts sequentially for tests.
func Reference(text *datagen.RandomText) map[string]uint64 {
	counts := make(map[string]uint64)
	for i := 0; i < text.Len(); i++ {
		for _, w := range strings.Fields(text.Line(i)) {
			counts[w]++
		}
	}
	return counts
}
