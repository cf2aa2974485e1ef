package mr

import (
	"reflect"
	"strconv"
	"testing"
)

// TestLineSplitsLayout pins the split layout every generated workload
// input shares: ceil(n/numSplits) records per split, in order, the
// last split short, and always at least one split.
func TestLineSplitsLayout(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n, numSplits int
		want         []int // records per split
	}{
		{"empty input", 0, 4, []int{0}},
		{"more splits than lines", 3, 5, []int{1, 1, 1}},
		{"uneven remainder", 10, 4, []int{3, 3, 3, 1}},
		{"remainder leaves a split out", 9, 4, []int{3, 3, 3}},
		{"even", 8, 4, []int{2, 2, 2, 2}},
		{"no splits asked", 5, 0, []int{5}},
		{"negative splits", 5, -2, []int{5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			splits := LineSplits(tc.n, tc.numSplits, strconv.Itoa)
			var sizes []int
			next := 0
			for _, s := range splits {
				size := 0
				err := s.Records(func(k, v []byte) error {
					if k != nil {
						t.Errorf("record %d: key %q, want nil", next, k)
					}
					if string(v) != strconv.Itoa(next) {
						t.Errorf("record %d: value %q out of order", next, v)
					}
					next++
					size++
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				sizes = append(sizes, size)
			}
			if !reflect.DeepEqual(sizes, tc.want) {
				t.Errorf("split sizes %v, want %v", sizes, tc.want)
			}
		})
	}
}
