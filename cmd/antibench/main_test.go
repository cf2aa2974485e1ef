package main

import (
	"strings"
	"testing"
)

// TestRunChaos: one seeded in-process soak under the mixed profile
// passes its invariants, and an unknown engine or profile is an error
// naming the valid choices.
func TestRunChaos(t *testing.T) {
	if err := runChaos(1, 1, "mixed", "inprocess", nil); err != nil {
		t.Fatalf("in-process soak: %v", err)
	}
	for _, c := range []struct{ profile, engine, want string }{
		{"mixed", "bogus", "unknown engine"},
		{"bogus", "inprocess", "unknown profile"},
	} {
		err := runChaos(1, 1, c.profile, c.engine, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("runChaos(profile %q, engine %q) = %v, want an error containing %q", c.profile, c.engine, err, c.want)
		}
	}
}
