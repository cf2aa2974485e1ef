package mr

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestPlanLayout pins the task graph against layouts written out by
// hand from the scheduler loop that used to build it (maps, then each
// partition's fetches in map order, then reduces): names, groups, deps,
// the aligned diagonal, per-partition source order and totals. The
// expectations are literals on purpose — nothing here is computed by
// the code under test.
func TestPlanLayout(t *testing.T) {
	type task struct {
		name, group string
		deps        string // space-separated
	}
	cases := []struct {
		name           string
		job            Job
		inputs         int
		want           Plan
		tasks          []task
		sources        [][]int
		fetches, total int
	}{
		{
			name: "1x1", job: Job{NumReduceTasks: 1}, inputs: 1,
			want: Plan{Maps: 1, Reduces: 1},
			tasks: []task{
				{"map/0", "map", ""},
				{"fetch/0/0", "fetch", "map/0"},
				{"reduce/0", "reduce", "fetch/0/0"},
			},
			sources: [][]int{{0}}, fetches: 1, total: 3,
		},
		{
			name: "3 maps x 2 reduces", job: Job{NumReduceTasks: 2}, inputs: 3,
			want: Plan{Maps: 3, Reduces: 2},
			tasks: []task{
				{"map/0", "map", ""},
				{"map/1", "map", ""},
				{"map/2", "map", ""},
				{"fetch/0/0", "fetch", "map/0"},
				{"fetch/0/1", "fetch", "map/1"},
				{"fetch/0/2", "fetch", "map/2"},
				{"fetch/1/0", "fetch", "map/0"},
				{"fetch/1/1", "fetch", "map/1"},
				{"fetch/1/2", "fetch", "map/2"},
				{"reduce/0", "reduce", "fetch/0/0 fetch/0/1 fetch/0/2"},
				{"reduce/1", "reduce", "fetch/1/0 fetch/1/1 fetch/1/2"},
			},
			sources: [][]int{{0, 1, 2}, {0, 1, 2}}, fetches: 6, total: 11,
		},
		{
			name: "2 maps x 3 reduces", job: Job{NumReduceTasks: 3}, inputs: 2,
			want: Plan{Maps: 2, Reduces: 3},
			tasks: []task{
				{"map/0", "map", ""},
				{"map/1", "map", ""},
				{"fetch/0/0", "fetch", "map/0"},
				{"fetch/0/1", "fetch", "map/1"},
				{"fetch/1/0", "fetch", "map/0"},
				{"fetch/1/1", "fetch", "map/1"},
				{"fetch/2/0", "fetch", "map/0"},
				{"fetch/2/1", "fetch", "map/1"},
				{"reduce/0", "reduce", "fetch/0/0 fetch/0/1"},
				{"reduce/1", "reduce", "fetch/1/0 fetch/1/1"},
				{"reduce/2", "reduce", "fetch/2/0 fetch/2/1"},
			},
			sources: [][]int{{0, 1}, {0, 1}, {0, 1}}, fetches: 6, total: 11,
		},
		{
			name: "aligned 3x3", job: Job{NumReduceTasks: 3, AlignedInput: true}, inputs: 3,
			want: Plan{Maps: 3, Reduces: 3, Aligned: true},
			tasks: []task{
				{"map/0", "map", ""},
				{"map/1", "map", ""},
				{"map/2", "map", ""},
				{"fetch/0/0", "fetch", "map/0"},
				{"fetch/1/1", "fetch", "map/1"},
				{"fetch/2/2", "fetch", "map/2"},
				{"reduce/0", "reduce", "fetch/0/0"},
				{"reduce/1", "reduce", "fetch/1/1"},
				{"reduce/2", "reduce", "fetch/2/2"},
			},
			sources: [][]int{{0}, {1}, {2}}, fetches: 3, total: 9,
		},
		{
			// NumReduceTasks left at 0 means 4.
			name: "default reduces", job: Job{}, inputs: 1,
			want: Plan{Maps: 1, Reduces: 4},
			tasks: []task{
				{"map/0", "map", ""},
				{"fetch/0/0", "fetch", "map/0"},
				{"fetch/1/0", "fetch", "map/0"},
				{"fetch/2/0", "fetch", "map/0"},
				{"fetch/3/0", "fetch", "map/0"},
				{"reduce/0", "reduce", "fetch/0/0"},
				{"reduce/1", "reduce", "fetch/1/0"},
				{"reduce/2", "reduce", "fetch/2/0"},
				{"reduce/3", "reduce", "fetch/3/0"},
			},
			sources: [][]int{{0}, {0}, {0}, {0}}, fetches: 4, total: 9,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl, err := NewPlan(&c.job, c.inputs)
			if err != nil {
				t.Fatal(err)
			}
			if pl != c.want {
				t.Fatalf("plan = %+v, want %+v", pl, c.want)
			}
			got := pl.Tasks()
			if len(got) != len(c.tasks) || len(got) != c.total {
				t.Fatalf("%d tasks, want %d (total %d)", len(got), len(c.tasks), c.total)
			}
			for i, want := range c.tasks {
				g := got[i]
				if g.Name != want.name || g.Group != want.group || strings.Join(g.Deps, " ") != want.deps {
					t.Errorf("task %d = %s (%s) deps %v, want %s (%s) deps [%s]",
						i, g.Name, g.Group, g.Deps, want.name, want.group, want.deps)
				}
				if g.Run != nil {
					t.Errorf("task %s has a Run", g.Name)
				}
			}
			if pl.Fetches() != c.fetches {
				t.Errorf("Fetches() = %d, want %d", pl.Fetches(), c.fetches)
			}
			for p, want := range c.sources {
				if got := pl.Sources(p); !reflect.DeepEqual(got, want) {
					t.Errorf("Sources(%d) = %v, want %v", p, got, want)
				}
			}
		})
	}
}

// TestPlanLookup: every task name resolves to its group and indices,
// and names outside the plan — wrong group, out of range, off the
// aligned diagonal, malformed — do not.
func TestPlanLookup(t *testing.T) {
	pl := Plan{Maps: 3, Reduces: 2}
	for name, want := range map[string]TaskID{
		"map/0":     {Group: "map", Map: 0, Partition: -1},
		"map/2":     {Group: "map", Map: 2, Partition: -1},
		"fetch/1/2": {Group: "fetch", Map: 2, Partition: 1},
		"fetch/0/0": {Group: "fetch", Map: 0, Partition: 0},
		"reduce/1":  {Group: "reduce", Map: -1, Partition: 1},
	} {
		if got, ok := pl.Lookup(name); !ok || got != want {
			t.Errorf("Lookup(%q) = %+v, %v; want %+v", name, got, ok, want)
		}
	}
	for _, name := range []string{
		"", "map", "map/", "map/3", "map/-1", "map/x", "map/0/0", "map/01", "map/+1",
		"reduce/2", "reduce/0/0", "fetch/0", "fetch/2/0", "fetch/0/3", "fetch/0/x", "shuffle/0",
	} {
		if got, ok := pl.Lookup(name); ok {
			t.Errorf("Lookup(%q) resolved to %+v", name, got)
		}
	}
	aligned := Plan{Maps: 2, Reduces: 2, Aligned: true}
	if _, ok := aligned.Lookup("fetch/0/1"); ok {
		t.Error("aligned plan resolved an off-diagonal fetch")
	}
	if got, ok := aligned.Lookup("fetch/1/1"); !ok || got != (TaskID{Group: "fetch", Map: 1, Partition: 1}) {
		t.Errorf("aligned Lookup(fetch/1/1) = %+v, %v", got, ok)
	}
	// Tasks and Lookup agree: every laid-out name resolves.
	for _, task := range pl.Tasks() {
		if id, ok := pl.Lookup(task.Name); !ok || id.Group != task.Group {
			t.Errorf("Lookup(%q) = %+v, %v for a %s task", task.Name, id, ok, task.Group)
		}
	}
}

// TestPlanAlignedNeedsSquare: an aligned job over the wrong number of
// inputs is an invalid job, from Run and from NewPlan alike.
func TestPlanAlignedNeedsSquare(t *testing.T) {
	if _, err := NewPlan(&Job{NumReduceTasks: 3, AlignedInput: true}, 2); !errors.Is(err, errJob) {
		t.Fatalf("NewPlan error = %v, want errJob", err)
	}
}
