// Quickstart: word count through the public API, run twice — original
// and Anti-Combined — printing the counts and the data-transfer
// comparison. This is the smallest complete program against the
// library: define Map and Reduce, build a Job, flip Anti-Combining on
// with one call.
package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro"
)

func newJob() *repro.Job {
	sum := repro.NewReduceFunc(func(key []byte, values repro.ValueIter, out repro.Emitter) error {
		total := 0
		for {
			v, ok := values.Next()
			if !ok {
				break
			}
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return err
			}
			total += n
		}
		return out.Emit(key, []byte(strconv.Itoa(total)))
	})
	return &repro.Job{
		Name: "quickstart",
		NewMapper: repro.NewMapFunc(func(key, value []byte, out repro.Emitter) error {
			for _, w := range strings.Fields(string(value)) {
				if err := out.Emit([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		}),
		NewReducer:     sum,
		NewCombiner:    sum,
		NumReduceTasks: 3,
		Deterministic:  true, // Map is a pure function: LazySH is safe
	}
}

func main() {
	lines := []string{
		"anti combining shifts mapper work to the reducers",
		"a combiner shifts reducer work to the mappers",
		"anti combining is the opposite of a combiner",
	}
	var recs []repro.Record
	for _, l := range lines {
		recs = append(recs, repro.Record{Value: []byte(l)})
	}

	original, err := repro.Run(newJob(), repro.SplitRecords(recs, 2))
	if err != nil {
		panic(err)
	}
	anti, err := repro.Run(repro.AntiCombine(newJob(), repro.AdaptiveInf()),
		repro.SplitRecords(recs, 2))
	if err != nil {
		panic(err)
	}

	type wc struct {
		word  string
		count string
	}
	var counts []wc
	for _, r := range anti.SortedOutput() {
		counts = append(counts, wc{string(r.Key), string(r.Value)})
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i].word < counts[j].word })
	fmt.Println("word counts (from the Anti-Combined run):")
	for _, c := range counts {
		fmt.Printf("  %-10s %s\n", c.word, c.count)
	}

	fmt.Printf("\nmap output: original %d bytes, anti-combined %d bytes\n",
		original.Stats.MapOutputBytes, anti.Stats.MapOutputBytes)
	agree := reflect.DeepEqual(original.SortedOutput(), anti.SortedOutput())
	fmt.Printf("both runs agree: %v\n", agree)
	if !agree {
		os.Exit(1)
	}
}
