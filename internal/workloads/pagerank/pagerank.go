// Package pagerank implements the iterative PageRank workload of §7.7.2:
// each iteration's Map divides a node's rank evenly over its outgoing
// edges, emitting every edge with its contribution, and forwards the
// graph structure; Reduce sums contributions and applies the damping
// factor. All of one node's contribution records carry the same value —
// rank/out-degree — so EagerSH collapses a high-out-degree hub's fan-out
// per reduce task into a single record, and LazySH can ship the node
// record itself instead; skewed graphs make both wins large.
//
// One job, NewRankJob, runs an iteration. E9 chains it job by job; the
// dag pipeline of iter.go (X7) runs it as its rank stage.
package pagerank

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bytesx"
	"repro/internal/datagen"
	"repro/internal/monoid"
	"repro/internal/mr"
)

// Damping is the standard PageRank damping factor.
const Damping = 0.85

// Record-kind tags in value components.
const (
	tagStruct     = 'S' // rank, adjacency: iteration-0 input and map output
	tagContrib    = 'R' // one rank contribution
	tagStructPrev = 'P' // new rank, previous rank, adjacency: job output
)

// NodeKey renders a node id as a fixed-width big-endian key, so raw byte
// comparison orders nodes numerically.
func NodeKey(id int32) []byte {
	var k [4]byte
	binary.BigEndian.PutUint32(k[:], uint32(id))
	return k[:]
}

// NodeID parses a node key.
func NodeID(key []byte) int32 { return int32(binary.BigEndian.Uint32(key)) }

// appendAdj appends an adjacency list: a uvarint count, then one uvarint
// node id per entry.
func appendAdj(buf []byte, adj []int32) []byte {
	buf = bytesx.AppendUvarint(buf, uint64(len(adj)))
	for _, dst := range adj {
		buf = bytesx.AppendUvarint(buf, uint64(uint32(dst)))
	}
	return buf
}

// decodeAdj decodes what appendAdj wrote. Every entry takes at least one
// byte, so a count above the bytes that remain is corrupt, and is
// rejected before it can size an allocation.
func decodeAdj(buf []byte) ([]int32, error) {
	n, used, err := bytesx.Uvarint(buf)
	if err != nil {
		return nil, err
	}
	buf = buf[used:]
	if n > uint64(len(buf)) {
		return nil, fmt.Errorf("%w: pagerank adjacency count %d, %d bytes left", bytesx.ErrCorrupt, n, len(buf))
	}
	adj := make([]int32, n)
	for i := range adj {
		v, used, err := bytesx.Uvarint(buf)
		if err != nil {
			return nil, err
		}
		adj[i] = int32(uint32(v))
		buf = buf[used:]
	}
	return adj, nil
}

// EncodeStruct packs a node's rank and adjacency list.
func EncodeStruct(rank float64, adj []int32) []byte {
	buf := make([]byte, 0, 9+4*len(adj))
	buf = append(buf, tagStruct)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rank))
	return appendAdj(buf, adj)
}

// DecodeStruct unpacks a structure record.
func DecodeStruct(buf []byte) (rank float64, adj []int32, err error) {
	if len(buf) < 9 || buf[0] != tagStruct {
		return 0, nil, fmt.Errorf("pagerank: not a struct record")
	}
	rank = math.Float64frombits(binary.BigEndian.Uint64(buf[1:9]))
	adj, err = decodeAdj(buf[9:])
	return rank, adj, err
}

// EncodeStructPrev packs a node's new rank, its previous rank, and its
// adjacency list — the rank job's output record.
func EncodeStructPrev(rank, prev float64, adj []int32) []byte {
	buf := make([]byte, 0, 17+4*len(adj))
	buf = append(buf, tagStructPrev)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rank))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(prev))
	return appendAdj(buf, adj)
}

// DecodeStructPrev unpacks a 'P' record.
func DecodeStructPrev(buf []byte) (rank, prev float64, adj []int32, err error) {
	if len(buf) < 17 || buf[0] != tagStructPrev {
		return 0, 0, nil, fmt.Errorf("pagerank: not a struct-prev record")
	}
	rank = math.Float64frombits(binary.BigEndian.Uint64(buf[1:9]))
	prev = math.Float64frombits(binary.BigEndian.Uint64(buf[9:17]))
	adj, err = decodeAdj(buf[17:])
	return rank, prev, adj, err
}

// DecodeRank reads the current rank and adjacency from either input
// encoding the rank job accepts: an iteration-0 'S' record or a
// previous iteration's 'P' record.
func DecodeRank(value []byte) (rank float64, adj []int32, err error) {
	if len(value) > 0 && value[0] == tagStructPrev {
		rank, _, adj, err = DecodeStructPrev(value)
		return rank, adj, err
	}
	return DecodeStruct(value)
}

// EncodeContrib packs a rank contribution.
func EncodeContrib(c float64) []byte {
	var buf [9]byte
	buf[0] = tagContrib
	binary.BigEndian.PutUint64(buf[1:], math.Float64bits(c))
	return buf[:]
}

// mapper spreads a node's rank over its out-edges and forwards the
// node's structure, current rank included, to the node's own reducer,
// which pairs it with the new rank in the output.
type mapper struct{ mr.MapperBase }

// Map implements mr.Mapper: key is the node, value its 'S' or 'P'
// record.
func (mapper) Map(key, value []byte, out mr.Emitter) error {
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

// RankFold is the rank job's monoid: contributions add, the struct
// record rides along. One declaration serves the map-side combiner,
// which collapses a hub's fan-in per map task, and the reducer.
// Absorbing commutes; note float addition is only associative to
// rounding, so its law checks compare with an epsilon.
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

// finalRank renders the fully merged state as the job output: a 'P'
// record pairing the damped new rank with the rank the node had.
func finalRank(nodes int) func(key []byte, st rankState, out mr.Emitter) error {
	return func(key []byte, st rankState, out mr.Emitter) error {
		if !st.hasStruct {
			// A contribution for a node id outside the graph (cannot
			// happen with well-formed input, but fail loudly).
			return fmt.Errorf("pagerank: contributions for unknown node %d", NodeID(key))
		}
		newRank := (1-Damping)/float64(nodes) + Damping*st.sum
		return out.Emit(key, EncodeStructPrev(newRank, st.prev, st.adj))
	}
}

// NewRankJob builds one PageRank iteration over a graph of nodes nodes.
// It reads InitialRecords or a previous iteration's output and writes
// one 'P' record per node, so convergence is measurable downstream
// without a second read of the graph. Reducer and combiner both derive
// from RankFold.
func NewRankJob(nodes, reducers int) *mr.Job {
	return &mr.Job{
		Name:           "pagerank-rank",
		NewMapper:      func() mr.Mapper { return mapper{} },
		NewReducer:     monoid.Reducer(RankFold{}, finalRank(nodes)),
		NewCombiner:    monoid.Combiner(RankFold{}),
		NumReduceTasks: reducers,
		Deterministic:  true,
	}
}

// InitialRecords renders a graph as iteration-0 input with uniform ranks.
func InitialRecords(g *datagen.Graph) []mr.Record {
	n := len(g.Out)
	recs := make([]mr.Record, n)
	r0 := 1 / float64(n)
	for i, adj := range g.Out {
		recs[i] = mr.Record{Key: NodeKey(int32(i)), Value: EncodeStruct(r0, adj)}
	}
	return recs
}

// RanksFromParts extracts node ranks from a rank job's output
// partitions: an mr.Result's Output, or the iterative pipeline's.
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

// Reference computes PageRank sequentially for the same number of
// iterations, for correctness tests.
func Reference(g *datagen.Graph, iterations int) map[int32]float64 {
	n := len(g.Out)
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, n)
		for i := range next {
			next[i] = (1 - Damping) / float64(n)
		}
		for node, adj := range g.Out {
			if len(adj) == 0 {
				continue
			}
			share := Damping * ranks[node] / float64(len(adj))
			for _, dst := range adj {
				next[dst] += share
			}
		}
		ranks = next
	}
	out := make(map[int32]float64, n)
	for i, r := range ranks {
		out[int32(i)] = r
	}
	return out
}
