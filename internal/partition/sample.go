package partition

import (
	"fmt"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/mr"
)

// Sample runs the job's own mapper over every record of each split and
// sketches the emitted keys by framed byte weight — the same metering
// the map path charges to Stats.MapOutputBytes, so sketch weights
// predict real shuffle mass. The sketch is exact up to its capacity;
// the experiments' splits are already materialized in memory, so the
// pass costs one extra map execution. Splits are sampled in order with
// a fresh mapper instance each, making the sketch a pure function of
// job + splits — the determinism Apply needs for LazySH compatibility.
func Sample(job *mr.Job, splits []mr.Split) (*Sketch, error) {
	if job == nil || job.NewMapper == nil {
		return nil, fmt.Errorf("partition: sample needs a job with a mapper")
	}
	sk := NewSketch()
	cmp := job.KeyCompare
	if cmp == nil {
		cmp = bytesx.Bytes
	}
	gcmp := job.GroupCompare
	if gcmp == nil {
		gcmp = cmp
	}
	var part mr.Partitioner = mr.HashPartitioner{}
	if job.Partitioner != nil {
		part = job.Partitioner
	}
	reducers := job.NumReduceTasks
	if reducers <= 0 {
		reducers = 4
	}
	out := mr.EmitterFunc(func(k, v []byte) error {
		sk.Add(k, int64(bytesx.RecordLen(k, v)), 1)
		return nil
	})
	for i, split := range splits {
		mapper := job.NewMapper()
		info := &mr.TaskInfo{
			JobName:       job.Name + "/sample",
			Scratch:       job.Name + "/sample",
			TaskID:        i,
			Partition:     -1,
			NumPartitions: reducers,
			Partitioner:   part,
			KeyCompare:    cmp,
			GroupCompare:  gcmp,
			Counters:      &mr.Counters{},
			FS:            iokit.NewMemFS(),
		}
		if err := mapper.Setup(info, out); err != nil {
			return nil, fmt.Errorf("partition: sample split %d setup: %w", i, err)
		}
		err := split.Records(func(k, v []byte) error { return mapper.Map(k, v, out) })
		if err != nil {
			return nil, fmt.Errorf("partition: sample split %d: %w", i, err)
		}
		if err := mapper.Cleanup(out); err != nil {
			return nil, fmt.Errorf("partition: sample split %d cleanup: %w", i, err)
		}
	}
	return sk, nil
}
