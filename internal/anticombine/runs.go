package anticombine

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/iokit"
	"repro/internal/mr"
	"repro/internal/obs"
)

// instanceSeq disambiguates spill-file prefixes across the reducer and
// combiner instances that share one task attempt's scratch, and across
// Shared instances built without a task.
var instanceSeq atomic.Int64

// runSet holds the sorted runs a reduce-side structure spills to disk —
// Shared's values, or the fold reducer's states — as CRC32C-framed mr
// record files read back through the engine's merge heap, which it
// embeds. Runs are counted and traced as Shared spills, and merged into
// one when they pass the merge factor, mirroring the map phase's spill
// merge (§5).
type runSet struct {
	mr.RunMerger
	fs          iokit.FS
	prefix      string
	info        *mr.TaskInfo // names the files at the first spill, when set
	seq         int
	mergeFactor int
	spills      int64
	counters    *mr.Counters
	tracer      *obs.Tracer
}

// name returns the next run's file name. With a task, the prefix lies
// under the task attempt's scratch directory, which the engine clears
// when the attempt fails; without one it is anti/i<n>. It is formatted
// at the first spill: most instances — every transformed combiner whose
// run fits in memory — never spill, and do not pay for it.
func (s *runSet) name(kind string) string {
	if s.prefix == "" {
		if s.info != nil {
			s.prefix = fmt.Sprintf("%s/anti/p%04d-i%d", s.info.Scratch, s.info.Partition, instanceSeq.Add(1))
		} else {
			s.prefix = fmt.Sprintf("anti/i%d", instanceSeq.Add(1))
		}
	}
	name := fmt.Sprintf("%s/shared-%s%04d", s.prefix, kind, s.seq)
	s.seq++
	return name
}

// spill writes one run: write gets the run's writer and writes the
// content in ascending key order. The run is then pushed, and the runs
// are merged when they exceed the merge factor.
func (s *runSet) spill(write func(w *mr.RecordWriter) error) error {
	if s.fs == nil {
		return errors.New("anticombine: Shared memory limit exceeded and no spill FS configured")
	}
	name := s.name("spill")
	s.spills++
	if s.counters != nil {
		s.counters.AddExtra(CounterSharedSpills, 1)
	}
	span := s.tracer.Start(obs.KindSharedSpill, name)
	w, err := mr.CreateRecordFile(s.fs, name)
	if err == nil {
		err = write(w)
	}
	if err = s.add(span, name, w, err); err != nil || s.Len() <= s.mergeFactor {
		return err
	}
	return s.merge()
}

// merge merges all runs into one: it drains the merger into a new run,
// and the merger removes each source run's file as the run is exhausted.
// On a mid-merge error the partial merge file is removed; the source
// runs still open are left for Close.
func (s *runSet) merge() error {
	name := s.name("merge")
	if s.counters != nil {
		s.counters.AddExtra(CounterSharedMerges, 1)
	}
	span := s.tracer.Start(obs.KindSharedMerge, name, obs.Int("runs", int64(s.Len())))
	w, err := mr.CreateRecordFile(s.fs, name)
	for err == nil && s.Len() > 0 {
		var k, v []byte
		if k, v, err = s.Next(); err == nil {
			err = w.Write(k, v)
		}
	}
	return s.add(span, name, w, err)
}

// add finishes the run w was writing to name — err is the error writing
// it, if any, and w is nil when the file was never created — ends span
// with the outcome, and pushes the run onto the merger. A failed run's
// file is removed.
func (s *runSet) add(span *obs.SpanRef, name string, w *mr.RecordWriter, err error) error {
	var records, written int64
	if w != nil {
		records, written, err = w.Close(err)
	}
	if err != nil {
		span.End(obs.Str("outcome", "failed"), obs.Str("err", err.Error()))
		return err
	}
	span.End(obs.Int("records", records), obs.Int("bytes", written))
	return s.Push(name)
}
