package partition

import (
	"fmt"

	"repro/internal/bytesx"
	"repro/internal/iokit"
	"repro/internal/mr"
)

// SampleOptions tunes the sampling pass.
type SampleOptions struct {
	// MaxRecordsPerSplit caps how many input records of each split are
	// fed through the mapper at each stride level. <= 0 maps every
	// record: an exact sketch (up to sketch capacity), which is what
	// the experiments use — their splits are already materialized in
	// memory, so a full pass costs one extra map execution.
	MaxRecordsPerSplit int
	// SketchCapacity bounds tracked keys (<= 0: DefaultSketchCapacity).
	SketchCapacity int
}

// Sample runs the job's own mapper over a deterministic sample of each
// split and sketches the emitted keys by framed byte weight — the same
// metering the map path charges to Stats.MapOutputBytes, so sketch
// weights predict real shuffle mass. Sampling is strided: when a split
// yields more than MaxRecordsPerSplit records at the current stride,
// the stride doubles (each emission is weighted by the stride in force,
// so totals estimate the full input). Splits are sampled in order with
// a fresh mapper instance each, making the sketch a pure function of
// job + splits — the determinism Apply needs for LazySH compatibility.
func Sample(job *mr.Job, splits []mr.Split, opts SampleOptions) (*Sketch, error) {
	if job == nil || job.NewMapper == nil {
		return nil, fmt.Errorf("partition: sample needs a job with a mapper")
	}
	sk := NewSketch(opts.SketchCapacity)
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
		stride := 1
		mapped := 0
		out := mr.EmitterFunc(func(k, v []byte) error {
			sk.Add(k, int64(bytesx.RecordLen(k, v))*int64(stride), int64(stride))
			return nil
		})
		if err := mapper.Setup(info, out); err != nil {
			return nil, fmt.Errorf("partition: sample split %d setup: %w", i, err)
		}
		idx := 0
		err := split.Records(func(k, v []byte) error {
			take := idx%stride == 0
			idx++
			if !take {
				return nil
			}
			if err := mapper.Map(k, v, out); err != nil {
				return err
			}
			if mapped++; opts.MaxRecordsPerSplit > 0 && mapped%opts.MaxRecordsPerSplit == 0 {
				stride *= 2
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("partition: sample split %d: %w", i, err)
		}
		if err := mapper.Cleanup(out); err != nil {
			return nil, fmt.Errorf("partition: sample split %d cleanup: %w", i, err)
		}
	}
	return sk, nil
}
