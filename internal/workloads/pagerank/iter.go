package pagerank

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/datagen"
	"repro/internal/monoid"
	"repro/internal/mr"
)

// Iterative PageRank as a 3-stage-per-iteration pipeline (internal/dag):
//
//	rank  — NewRankJob, the one PageRank iteration E9 runs too. Its
//	        'P' output records carry both the new and the previous rank,
//	        and its RankFold-derived combiner collapses a hub's fan-out.
//	delta — partition-preserving (mr.Job.AlignedInput): each map task
//	        folds |rank−prev| over its partition of rank output and
//	        emits exactly one per-partition sum, so the stage's shuffle
//	        collapses to the diagonal.
//	norm  — folds the per-partition sums into one global L1 delta, the
//	        single record the driver's convergence predicate reads.
//
// The rank stage's output is both the delta stage's input and the next
// iteration's carry; with the dag runner the partitions never re-spill
// through the driver between stages.

// DeltaKey renders a partition index as a fixed-width big-endian key.
func DeltaKey(i int) []byte { return NodeKey(int32(i)) }

// EncodeDelta packs an L1-delta partial sum.
func EncodeDelta(d float64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(d))
	return buf[:]
}

// DecodeDelta unpacks a delta record.
func DecodeDelta(buf []byte) (float64, error) {
	if len(buf) != 8 {
		return 0, fmt.Errorf("pagerank: bad delta record length %d", len(buf))
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf)), nil
}

// IndexPartitioner routes a big-endian uint32 key to its own index —
// the partitioner that makes DeltaKey(i) land on partition i.
var IndexPartitioner = mr.PartitionerFunc(func(key []byte, parts int) int {
	return int(binary.BigEndian.Uint32(key)) % parts
})

// DeltaSum is the delta and norm stages' monoid: plain float addition
// over EncodeDelta records. Commutative; associative to rounding.
type DeltaSum struct{}

// Identity implements monoid.Monoid.
func (DeltaSum) Identity() float64 { return 0 }

// Absorb implements monoid.Monoid.
func (DeltaSum) Absorb(s float64, value []byte) (float64, error) {
	d, err := DecodeDelta(value)
	return s + d, err
}

// Emit implements monoid.Monoid.
func (DeltaSum) Emit(key []byte, s float64, out mr.Emitter) error {
	return out.Emit(key, EncodeDelta(s))
}

// CommutativeMonoid marks DeltaSum commutative.
func (DeltaSum) CommutativeMonoid() {}

// deltaMapper folds |rank−prev| over one partition of rank output and
// emits a single per-partition sum keyed by its own task index — the
// shape that makes the delta stage aligned.
type deltaMapper struct {
	task int
	sum  float64
}

func (m *deltaMapper) Setup(info *mr.TaskInfo, _ mr.Emitter) error {
	m.task = info.TaskID
	m.sum = 0
	return nil
}

func (m *deltaMapper) Map(key, value []byte, _ mr.Emitter) error {
	rank, prev, _, err := DecodeStructPrev(value)
	if err != nil {
		return err
	}
	m.sum += math.Abs(rank - prev)
	return nil
}

func (m *deltaMapper) Cleanup(out mr.Emitter) error {
	return out.Emit(DeltaKey(m.task), EncodeDelta(m.sum))
}

// NewDeltaJob builds the delta stage: partition-preserving fold of the
// rank stage's output into one L1-delta record per partition. With
// AlignedInput the engine prunes the fetch graph to the diagonal — the
// same-partitioning fast path.
func NewDeltaJob(parts int) *mr.Job {
	return &mr.Job{
		Name:           "pagerank-delta",
		NewMapper:      func() mr.Mapper { return &deltaMapper{} },
		NewReducer:     monoid.Reducer(DeltaSum{}, nil),
		Partitioner:    IndexPartitioner,
		NumReduceTasks: parts,
		AlignedInput:   true,
		Deterministic:  true,
	}
}

// NewNormJob builds the norm stage: re-key every per-partition delta
// to one key and fold them into the global L1 delta.
func NewNormJob() *mr.Job {
	return &mr.Job{
		Name: "pagerank-norm",
		NewMapper: mr.NewMapFunc(func(key, value []byte, out mr.Emitter) error {
			return out.Emit(DeltaKey(0), value)
		}),
		NewReducer:     monoid.Reducer(DeltaSum{}, nil),
		Partitioner:    IndexPartitioner,
		NumReduceTasks: 1,
		Deterministic:  true,
	}
}

// TotalDelta reads the norm stage's single output record.
func TotalDelta(terminal map[string][][]mr.Record) (float64, error) {
	parts := terminal["norm"]
	for _, part := range parts {
		for _, rec := range part {
			return DecodeDelta(rec.Value)
		}
	}
	return 0, fmt.Errorf("pagerank: norm stage produced no delta record")
}

// IterSpec parameterizes the registered iterative pipeline and its
// per-stage cluster jobs.
type IterSpec struct {
	Nodes     int     `json:"nodes"`
	AvgDegree int     `json:"avg_degree"`
	Seed      uint64  `json:"seed"`
	Parts     int     `json:"parts"`
	MaxIters  int     `json:"max_iters"`
	Epsilon   float64 `json:"epsilon"`
}

func (s IterSpec) normalized() IterSpec {
	if s.Nodes <= 0 {
		s.Nodes = 1000
	}
	if s.AvgDegree <= 0 {
		s.AvgDegree = 8
	}
	if s.Parts <= 0 {
		s.Parts = 4
	}
	if s.MaxIters <= 0 {
		s.MaxIters = 10
	}
	return s
}

// NewIterPipeline builds the 3-stage iterative pipeline for a spec.
// Each stage names its registered cluster job, so the same pipeline
// runs in process and on a fleet; the rank stage's job builds the
// graph splits iteration 0 reads.
func NewIterPipeline(spec IterSpec) *dag.Pipeline {
	spec = spec.normalized()
	raw, _ := json.Marshal(spec)
	ref := func(name string) cluster.JobRef { return cluster.JobRef{Name: name, Spec: raw} }
	p := &dag.Pipeline{
		Name: "pagerank-iter",
		Stages: []dag.Stage{
			{Name: "rank", Job: ref("pagerank-iter/rank")},
			{Name: "delta", From: "rank", Job: ref("pagerank-iter/delta")},
			{Name: "norm", From: "delta", Job: ref("pagerank-iter/norm")},
		},
		Carry:    "rank",
		Output:   "rank",
		MaxIters: spec.MaxIters,
	}
	if spec.Epsilon > 0 {
		p.Until = func(_ int, terminal map[string][][]mr.Record) (bool, error) {
			delta, err := TotalDelta(terminal)
			if err != nil {
				return false, err
			}
			return delta < spec.Epsilon, nil
		}
	}
	return p
}

// IterInputs renders a spec's graph as the pipeline's initial input,
// pre-partitioned with the rank job's partitioner so iteration 0 has
// the same map-task structure as every carried iteration.
func IterInputs(spec IterSpec) [][]mr.Record {
	spec = spec.normalized()
	g := datagen.NewGraph(datagen.GraphConfig{
		Seed: spec.Seed, Nodes: spec.Nodes, AvgOutDegree: spec.AvgDegree,
	})
	return PartitionRecords(InitialRecords(g), spec.Parts)
}

// iterSplits serves IterInputs as one split per partition. The graph
// is generated on the first read and shared by the spec's splits, so a
// build whose splits are never read (a carried iteration, a
// coordinator's Submit) generates nothing.
func iterSplits(spec IterSpec) []mr.Split {
	parts := sync.OnceValue(func() [][]mr.Record { return IterInputs(spec) })
	splits := make([]mr.Split, spec.Parts)
	for i := range splits {
		splits[i] = &mr.GenSplit{Gen: func(emit func(key, value []byte) error) error {
			return (&mr.MemSplit{Recs: parts()[i]}).Records(emit)
		}}
	}
	return splits
}

// PartitionRecords splits records into parts groups with the default
// hash partitioner — the same routing the rank stage's shuffle uses.
func PartitionRecords(recs []mr.Record, parts int) [][]mr.Record {
	out := make([][]mr.Record, parts)
	var h mr.HashPartitioner
	for _, r := range recs {
		p := h.Partition(r.Key, parts)
		out[p] = append(out[p], r)
	}
	return out
}

func buildIterSpec(raw []byte) (IterSpec, error) {
	var spec IterSpec
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &spec); err != nil {
			return spec, fmt.Errorf("pagerank: bad iter spec: %w", err)
		}
	}
	return spec.normalized(), nil
}

func init() {
	// Per-stage cluster jobs. The rank job's splits are the graph, read
	// on iteration 0; every other input arrives as the upstream stage's
	// handoffs, so the delta and norm builders return no splits.
	cluster.RegisterJob("pagerank-iter/rank", func(raw []byte) (*mr.Job, []mr.Split, error) {
		spec, err := buildIterSpec(raw)
		if err != nil {
			return nil, nil, err
		}
		return NewRankJob(spec.Nodes, spec.Parts), iterSplits(spec), nil
	})
	cluster.RegisterJob("pagerank-iter/delta", func(raw []byte) (*mr.Job, []mr.Split, error) {
		spec, err := buildIterSpec(raw)
		if err != nil {
			return nil, nil, err
		}
		return NewDeltaJob(spec.Parts), nil, nil
	})
	cluster.RegisterJob("pagerank-iter/norm", func(raw []byte) (*mr.Job, []mr.Split, error) {
		if _, err := buildIterSpec(raw); err != nil {
			return nil, nil, err
		}
		return NewNormJob(), nil, nil
	})
	dag.RegisterPipeline("pagerank-iter", func(raw []byte) (*dag.Pipeline, error) {
		spec, err := buildIterSpec(raw)
		if err != nil {
			return nil, err
		}
		return NewIterPipeline(spec), nil
	})
}
