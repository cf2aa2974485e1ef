package mr

// Split is one map task's input: a stream of key/value records. The
// slices passed to fn are only valid for the duration of the call.
type Split interface {
	Records(fn func(key, value []byte) error) error
}

// MemSplit is an in-memory Split.
type MemSplit struct {
	Recs []Record
}

// Records implements Split.
func (s *MemSplit) Records(fn func(key, value []byte) error) error {
	for _, r := range s.Recs {
		if err := fn(r.Key, r.Value); err != nil {
			return err
		}
	}
	return nil
}

// GenSplit produces records from a generator function, so large inputs
// need never be materialized. The generator is called with an emit
// callback and must forward its error.
type GenSplit struct {
	Gen func(emit func(key, value []byte) error) error
}

// Records implements Split.
func (s *GenSplit) Records(fn func(key, value []byte) error) error {
	return s.Gen(fn)
}

// LineSplits renders n generated lines as nil-key records, line(i) the
// value of record i, and cuts them into numSplits in-memory splits with
// SplitRecords. The lines are generated here, once, so a map task's CPU
// never includes generating its input.
func LineSplits(n, numSplits int, line func(i int) string) []Split {
	recs := make([]Record, n)
	for i := range recs {
		recs[i].Value = []byte(line(i))
	}
	return SplitRecords(recs, numSplits)
}

// SplitRecords partitions recs into n roughly equal in-memory splits.
func SplitRecords(recs []Record, n int) []Split {
	if n < 1 {
		n = 1
	}
	splits := make([]Split, 0, n)
	per := (len(recs) + n - 1) / n
	for start := 0; start < len(recs); start += per {
		end := min(start+per, len(recs))
		splits = append(splits, &MemSplit{Recs: recs[start:end]})
	}
	if len(splits) == 0 {
		splits = append(splits, &MemSplit{})
	}
	return splits
}
