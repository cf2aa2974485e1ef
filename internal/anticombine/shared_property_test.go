package anticombine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bytesx"
	"repro/internal/iokit"
)

// TestSharedRandomizedAgainstReference drives Shared with random
// interleavings of Add / PeekMinKey / PopMinKeyValues across many
// memory-limit configurations and checks every observation against a
// plain sorted-multimap reference. A popped group is a set of views into
// Shared's buffers, valid until the next mutation: it is checked only
// after the non-mutating calls that follow the pop, and — as long as
// nothing has spilled — must list the values in arrival order.
func TestSharedRandomizedAgainstReference(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		memLimit := []int{32, 100, 1000, 1 << 20}[trial%4]
		mergeFactor := []int{2, 3, 10}[trial%3]
		s := NewShared(SharedConfig{
			KeyCompare:    bytesx.Bytes,
			MemLimitBytes: memLimit,
			MergeFactor:   mergeFactor,
			FS:            iokit.NewMemFS(),
			Prefix:        fmt.Sprintf("rand%04d", trial),
		})
		ref := map[string][]string{}
		minRefKey := func() (string, bool) {
			keys := make([]string, 0, len(ref))
			for k := range ref {
				keys = append(keys, k)
			}
			if len(keys) == 0 {
				return "", false
			}
			sort.Strings(keys)
			return keys[0], true
		}

		// Popped keys must be >= every previously popped key AND >= the
		// min at pop time; Adds may only use keys >= the last popped key
		// (the drain-in-order discipline AntiReducer guarantees).
		floor := ""
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0, 1: // Add
				k := fmt.Sprintf("%s%02d", floor, rng.Intn(40))
				v := fmt.Sprintf("v%06d", rng.Intn(1000000))
				if err := s.Add([]byte(k), []byte(v)); err != nil {
					t.Fatalf("trial %d op %d: Add: %v", trial, op, err)
				}
				ref[k] = append(ref[k], v)
			case 2: // Peek
				want, wantOK := minRefKey()
				got, ok := s.PeekMinKey()
				if ok != wantOK || (ok && string(got) != want) {
					t.Fatalf("trial %d op %d: PeekMinKey = %q/%v, want %q/%v",
						trial, op, got, ok, want, wantOK)
				}
			case 3: // Pop
				want, wantOK := minRefKey()
				if !wantOK {
					continue
				}
				k, vals, err := s.PopMinKeyValues()
				if err != nil {
					t.Fatalf("trial %d op %d: Pop: %v", trial, op, err)
				}
				s.PeekMinKey()
				s.Empty()
				if string(k) != want {
					t.Fatalf("trial %d op %d: popped %q, want %q", trial, op, k, want)
				}
				got := make([]string, len(vals))
				for i, v := range vals {
					got[i] = string(v)
				}
				wantVals := append([]string(nil), ref[want]...)
				if s.Spills() > 0 {
					sort.Strings(got)
					sort.Strings(wantVals)
				}
				if len(got) != len(wantVals) {
					t.Fatalf("trial %d op %d: key %q: %d values, want %d",
						trial, op, k, len(got), len(wantVals))
				}
				for i := range wantVals {
					if got[i] != wantVals[i] {
						t.Fatalf("trial %d op %d: key %q value mismatch", trial, op, k)
					}
				}
				delete(ref, want)
				floor = want
			}
		}
		// Drain the remainder.
		for !s.Empty() {
			k, vals, err := s.PopMinKeyValues()
			if err != nil {
				t.Fatal(err)
			}
			want, _ := minRefKey()
			if string(k) != want || len(vals) != len(ref[want]) {
				t.Fatalf("trial %d drain: key %q (%d values), want %q (%d)",
					trial, k, len(vals), want, len(ref[want]))
			}
			delete(ref, want)
		}
		if len(ref) != 0 {
			t.Fatalf("trial %d: %d keys never surfaced", trial, len(ref))
		}
		s.Close()
	}
}
