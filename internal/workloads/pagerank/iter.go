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
//	rank  — the classic contribution-spread job, except its output
//	        carries both the new and the previous rank ('P' records) so
//	        convergence is measurable downstream without a second read
//	        of the graph. Its reducer is derived from the RankFold
//	        monoid, so the map-side combiner collapsing a hub's fan-out
//	        comes from the same declaration.
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

// tagStructPrev marks a rank-stage output record: current rank,
// previous rank, adjacency.
const tagStructPrev = 'P'

// EncodeStructPrev packs a node's new rank, its previous rank, and its
// adjacency list — the rank stage's output record.
func EncodeStructPrev(rank, prev float64, adj []int32) []byte {
	buf := make([]byte, 0, 17+4*len(adj))
	buf = append(buf, tagStructPrev)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rank))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(prev))
	rest := EncodeStruct(0, adj)
	return append(buf, rest[9:]...) // adjacency varints only
}

// DecodeStructPrev unpacks a 'P' record.
func DecodeStructPrev(buf []byte) (rank, prev float64, adj []int32, err error) {
	if len(buf) < 17 || buf[0] != tagStructPrev {
		return 0, 0, nil, fmt.Errorf("pagerank: not a struct-prev record")
	}
	rank = math.Float64frombits(binary.BigEndian.Uint64(buf[1:9]))
	prev = math.Float64frombits(binary.BigEndian.Uint64(buf[9:17]))
	// Reuse the struct decoder for the adjacency varints.
	_, adj, err = DecodeStruct(append(EncodeStruct(0, nil)[:9], buf[17:]...))
	return rank, prev, adj, err
}

// DecodeRank reads the current rank and adjacency from either input
// encoding the rank stage accepts: an iteration-0 'S' record or a
// previous iteration's 'P' record.
func DecodeRank(value []byte) (rank float64, adj []int32, err error) {
	if len(value) > 0 && value[0] == tagStructPrev {
		rank, _, adj, err = DecodeStructPrev(value)
		return rank, adj, err
	}
	return DecodeStruct(value)
}

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

// iterMapper is the rank stage's map side: like the classic mapper it
// spreads rank over out-edges, but it accepts both input encodings and
// forwards the node's current rank inside the struct record so the
// reducer can emit (new, previous) pairs.
type iterMapper struct{ mr.MapperBase }

func (iterMapper) Map(key, value []byte, out mr.Emitter) error {
	rank, adj, err := DecodeRank(value)
	if err != nil {
		return err
	}
	if err := out.Emit(key, EncodeStruct(rank, adj)); err != nil {
		return err
	}
	if len(adj) == 0 {
		return nil
	}
	contrib := EncodeContrib(rank / float64(len(adj)))
	for _, dst := range adj {
		if err := out.Emit(NodeKey(dst), contrib); err != nil {
			return err
		}
	}
	return nil
}

// rankState is RankFold's aggregation state: the contribution sum plus
// the node's forwarded structure (previous rank and adjacency).
type rankState struct {
	sum       float64
	hasStruct bool
	prev      float64
	adj       []int32
}

// RankFold is the rank stage's monoid: contributions add, the struct
// record rides along. Its derived combiner collapses a hub's fan-in
// per map task exactly like the hand-written PageRank combiner of
// §7.7.2 — one declaration serves combiner and reducer. Merge is
// commutative; note float addition is only associative to rounding, so
// its law checks compare with an epsilon.
type RankFold struct{}

// Identity implements monoid.Monoid.
func (RankFold) Identity() rankState { return rankState{} }

// Absorb implements monoid.Monoid, accepting the map phase's 'S' and
// 'R' records — which are also exactly what Emit produces.
func (RankFold) Absorb(st rankState, value []byte) (rankState, error) {
	switch {
	case len(value) == 9 && value[0] == tagContrib:
		st.sum += math.Float64frombits(binary.BigEndian.Uint64(value[1:]))
	case len(value) > 0 && value[0] == tagStruct:
		prev, adj, err := DecodeStruct(value)
		if err != nil {
			return st, err
		}
		st.hasStruct, st.prev, st.adj = true, prev, adj
	default:
		return st, fmt.Errorf("pagerank: unknown record tag")
	}
	return st, nil
}

// Merge implements monoid.Monoid. y's adjacency is copied, not shared:
// Merge never retains its second argument.
func (RankFold) Merge(x, y rankState) (rankState, error) {
	x.sum += y.sum
	if y.hasStruct {
		x.hasStruct, x.prev, x.adj = true, y.prev, append([]int32(nil), y.adj...)
	}
	return x, nil
}

// Emit implements monoid.Monoid: a partial state re-encodes as at most
// one struct and one contribution record, both absorbable.
func (RankFold) Emit(key []byte, st rankState, out mr.Emitter) error {
	if st.hasStruct {
		if err := out.Emit(key, EncodeStruct(st.prev, st.adj)); err != nil {
			return err
		}
	}
	if st.sum != 0 {
		return out.Emit(key, EncodeContrib(st.sum))
	}
	return nil
}

// CommutativeMonoid marks RankFold commutative.
func (RankFold) CommutativeMonoid() {}

// finalRank renders the fully merged state as the stage output: a 'P'
// record pairing the damped new rank with the rank the node had.
func finalRank(nodes int) func(key []byte, st rankState, out mr.Emitter) error {
	return func(key []byte, st rankState, out mr.Emitter) error {
		if !st.hasStruct {
			return fmt.Errorf("pagerank: contributions for unknown node %d", NodeID(key))
		}
		newRank := (1-Damping)/float64(nodes) + Damping*st.sum
		return out.Emit(key, EncodeStructPrev(newRank, st.prev, st.adj))
	}
}

// NewRankJob builds the rank stage job: one PageRank iteration whose
// output carries (new, previous) rank pairs, combiner derived from
// RankFold.
func NewRankJob(nodes, reducers int) *mr.Job {
	return &mr.Job{
		Name:           "pagerank-rank",
		NewMapper:      func() mr.Mapper { return iterMapper{} },
		NewReducer:     monoid.Reducer(RankFold{}, finalRank(nodes)),
		NewCombiner:    monoid.Combiner(RankFold{}),
		NumReduceTasks: reducers,
		Deterministic:  true,
	}
}

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

// Merge implements monoid.Monoid.
func (DeltaSum) Merge(a, b float64) (float64, error) { return a + b, nil }

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

// RanksFromParts extracts node ranks from the pipeline's final output.
func RanksFromParts(parts [][]mr.Record) (map[int32]float64, error) {
	ranks := make(map[int32]float64)
	for _, part := range parts {
		for _, rec := range part {
			rank, _, _, err := DecodeStructPrev(rec.Value)
			if err != nil {
				return nil, err
			}
			ranks[NodeID(rec.Key)] = rank
		}
	}
	return ranks, nil
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
