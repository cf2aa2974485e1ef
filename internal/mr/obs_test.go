package mr

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/iokit"
	"repro/internal/obs"
)

// TestCountersSnapshotMidJob is the regression for mid-job Stats: once
// the engine wires the disk meter and start time, a Snapshot taken
// while the job runs must carry disk bytes and wall time, not zeros
// patched on after the run.
func TestCountersSnapshotMidJob(t *testing.T) {
	c := &Counters{}
	if s := c.Snapshot(); s.DiskReadBytes != 0 || s.WallTime != 0 {
		t.Fatalf("zero-value Counters snapshot not zero: %+v", s)
	}
	meter := &iokit.Meter{}
	meter.AddRead(100)
	meter.AddWrite(250)
	c.SetDiskMeter(meter)
	c.MarkStart(time.Now().Add(-time.Second))
	s := c.Snapshot()
	if s.DiskReadBytes != 100 || s.DiskWriteBytes != 250 {
		t.Errorf("disk bytes = %d/%d, want 100/250", s.DiskReadBytes, s.DiskWriteBytes)
	}
	if s.WallTime < time.Second {
		t.Errorf("WallTime = %v, want >= 1s", s.WallTime)
	}
	// MarkEnd freezes the wall clock: later snapshots agree exactly.
	c.MarkEnd(time.Now())
	s1 := c.Snapshot()
	time.Sleep(5 * time.Millisecond)
	s2 := c.Snapshot()
	if s1.WallTime != s2.WallTime {
		t.Errorf("wall clock still ticking after MarkEnd: %v then %v", s1.WallTime, s2.WallTime)
	}
}

// gatedReducer signals on its first Reduce call and blocks until
// released, holding a job mid-flight for an observer to inspect.
type gatedReducer struct {
	ReducerBase
	once    *sync.Once
	reached chan<- struct{}
	release <-chan struct{}
}

func (r *gatedReducer) Reduce(key []byte, values ValueIter, out Emitter) error {
	r.once.Do(func() {
		close(r.reached)
		<-r.release
	})
	for {
		if _, ok := values.Next(); !ok {
			return nil
		}
	}
}

// extraMapper emits the record and bumps an extra counter per record,
// racing AddExtra against concurrent Snapshot calls.
type extraMapper struct {
	MapperBase
	info *TaskInfo
}

func (m *extraMapper) Setup(info *TaskInfo, out Emitter) error {
	m.info = info
	return nil
}

func (m *extraMapper) Map(key, value []byte, out Emitter) error {
	m.info.Counters.AddExtra("test.extra", 1)
	return out.Emit(value, []byte("1"))
}

// TestLiveMetricsMidJobAndFinal drives the full observer path: a
// registry snapshot taken mid-job shows non-zero record and disk
// counters, values never decrease across snapshots, and the final
// snapshot equals the returned Result.Stats exactly. A hammer goroutine
// snapshots concurrently throughout, and the mapper calls AddExtra on
// every record, so `go test -race` exercises Snapshot vs AddExtra vs
// the engine's own counter writes.
func TestLiveMetricsMidJobAndFinal(t *testing.T) {
	reached := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	job := &Job{
		Name:      "observed",
		NewMapper: func() Mapper { return &extraMapper{} },
		NewReducer: func() Reducer {
			return &gatedReducer{once: &once, reached: reached, release: release}
		},
		NumReduceTasks: 2,
		Deterministic:  true,
	}
	reg := obs.NewRegistry()
	job.Metrics = reg

	var recs []Record
	for i := 0; i < 400; i++ {
		recs = append(recs, Record{Value: []byte{byte(i), byte(i >> 8)}})
	}
	splits := SplitRecords(recs, 4)

	// Hammer: concurrent snapshots all through the run.
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()

	type runResult struct {
		res *Result
		err error
	}
	done := make(chan runResult, 1)
	go func() {
		res, err := Run(job, splits)
		done <- runResult{res, err}
	}()

	<-reached
	mid := reg.Snapshot()
	close(release)
	rr := <-done
	close(stop)
	hammer.Wait()
	if rr.err != nil {
		t.Fatal(rr.err)
	}

	if v := mid.Values["observed/map_input_records"]; v == 0 {
		t.Error("mid-job snapshot has zero map_input_records")
	}
	if v := mid.Values["observed/disk_write_bytes"]; v == 0 {
		t.Error("mid-job snapshot has zero disk_write_bytes (the pre-fix symptom)")
	}

	final := reg.Snapshot()
	for k, v := range mid.Values {
		if fv, ok := final.Values[k]; !ok || fv < v {
			t.Errorf("metric %s not monotonic: mid %d, final %d", k, v, fv)
		}
	}
	want := rr.res.Stats.Labeled()
	for k, v := range want {
		if got := final.Values["observed/"+k]; got != v {
			t.Errorf("final registry %s = %d, Result.Stats has %d", k, got, v)
		}
	}
	if len(final.Values) != len(want) {
		t.Errorf("final snapshot has %d metrics, Result.Stats has %d", len(final.Values), len(want))
	}
}

// gatedMapper is an identity mapper that blocks on its gateAt-th record.
type gatedMapper struct {
	MapperBase
	seen    int
	gateAt  int
	reached chan<- struct{}
	release <-chan struct{}
}

func (m *gatedMapper) Map(key, value []byte, out Emitter) error {
	if m.seen++; m.seen == m.gateAt {
		close(m.reached)
		<-m.release
	}
	return out.Emit(value, value)
}

// TestCollectorTalliesReachSnapshotMidTask: a map task's collector adds
// its record and byte meters to the shared Counters in batches, not per
// record. An observer of a long task must still see them advance while
// it runs — never ahead of the task, at most one batch behind — and the
// final figures are exact, per partition too.
func TestCollectorTalliesReachSnapshotMidTask(t *testing.T) {
	const records, gateAt = 3*collectorFlushRecords + 100, 2*collectorFlushRecords + 50
	reached, release := make(chan struct{}), make(chan struct{})
	reg := obs.NewRegistry()
	job := &Job{
		Name:           "tallied",
		NewMapper:      func() Mapper { return &gatedMapper{gateAt: gateAt, reached: reached, release: release} },
		NewReducer:     NewReduceFunc(func([]byte, ValueIter, Emitter) error { return nil }),
		NumReduceTasks: 3,
		Metrics:        reg,
	}
	recs := make([]Record, records)
	for i := range recs {
		recs[i] = Record{Value: []byte{byte(i), byte(i >> 8)}}
	}
	done := make(chan error, 1)
	var res *Result
	go func() {
		var err error
		res, err = Run(job, []Split{&MemSplit{Recs: recs}})
		done <- err
	}()
	<-reached
	mid := reg.Snapshot().Values
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tallied/map_input_records", "tallied/map_output_records"} {
		if v := mid[name]; v < gateAt-collectorFlushRecords || v > gateAt {
			t.Errorf("mid-task %s = %d with %d records into the task", name, v, gateAt)
		}
	}
	st := res.Stats
	if st.MapInputRecords != records || st.MapOutputRecords != records || st.MapOutputBytes != 6*records {
		t.Errorf("final map meters: in %d, out %d records, %d bytes; want %d, %d, %d",
			st.MapInputRecords, st.MapOutputRecords, st.MapOutputBytes, records, records, 6*records)
	}
	var perPart int64
	for _, n := range st.MapOutputPerPartition {
		perPart += n
	}
	if perPart != st.MapOutputBytes {
		t.Errorf("per-partition map output sums to %d bytes of %d", perPart, st.MapOutputBytes)
	}
}

// TestCountersHammer races AddExtra, Snapshot, and the wiring setters
// directly (run under -race).
func TestCountersHammer(t *testing.T) {
	c := &Counters{}
	meter := &iokit.Meter{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch g % 4 {
				case 0:
					c.AddExtra("x", 1)
				case 1:
					c.Snapshot()
				case 2:
					c.SetDiskMeter(meter)
					c.MarkStart(time.Now())
				case 3:
					c.mapInputRecords.Add(1)
					meter.AddWrite(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Extra("x"); got != 1000 {
		t.Errorf("extra counter = %d, want 1000", got)
	}
}

// benchSplits builds a small word-count input reused by the overhead
// benchmarks below.
func benchObsSplits() []Split {
	var recs []Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, Record{Value: []byte("alpha beta gamma delta epsilon zeta")})
	}
	return SplitRecords(recs, 8)
}

// BenchmarkRunNoObs / BenchmarkRunTraced bound the observability tax on
// a full engine run: with no tracer or registry configured every span
// call is a nil-receiver no-op, so the two should be within noise of
// each other (the acceptance bar is <2%).
func BenchmarkRunNoObs(b *testing.B) {
	splits := benchObsSplits()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		job := wordCountJob(false)
		job.DiscardOutput = true
		if _, err := Run(job, splits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTraced(b *testing.B) {
	splits := benchObsSplits()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		job := wordCountJob(false)
		job.DiscardOutput = true
		job.Tracer = obs.NewTracer()
		job.Metrics = obs.NewRegistry()
		if _, err := Run(job, splits); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFailedStartKeepsJobSpan: spans are recorded when they end, so a
// Run that fails — here its only map task — must still end its job
// span, as failed.
func TestFailedStartKeepsJobSpan(t *testing.T) {
	job := wordCountJob(false)
	job.Tracer = obs.NewTracer()
	job.NewMapper = NewMapFunc(func(key, value []byte, out Emitter) error {
		return errors.New("map fails")
	})
	if _, err := Run(job, lines("a b")); err == nil {
		t.Fatal("Run succeeded with a failing map task")
	}
	var jobs []obs.Span
	for _, sp := range job.Tracer.Spans() {
		if sp.Kind == obs.KindJob {
			jobs = append(jobs, sp)
		}
	}
	if len(jobs) != 1 || jobs[0].Attr("outcome") != "failed" || jobs[0].Attr("err") == "" {
		t.Fatalf("job spans after a failed start = %+v, want one with outcome=failed and the error", jobs)
	}
}
