// Package obs is the engine's observability layer: typed trace spans,
// a unified live-metrics registry, and a periodic progress reporter.
//
// The span tracer generalizes the scheduler's per-attempt timeline
// (sched.Attempt) into a shared sink every layer can feed — the engine,
// the task scheduler, the shuffle transport, and anticombine's Shared
// structure all emit spans into one Tracer, and the result exports as
// Chrome trace-event JSON loadable in chrome://tracing or Perfetto, so
// a run's pipelined overlap is visually inspectable rather than only
// derivable from aggregate counters.
//
// Every entry point is nil-safe: a nil *Tracer, *SpanRef, or *Registry
// turns the corresponding call into a no-op without branching at call
// sites, so the disabled path costs one pointer compare and production
// code paths carry no "if tracing" clutter.
package obs

import (
	"strconv"
	"sync"
	"time"
)

// Span kinds used by the engine. The tracer itself treats kinds as
// opaque strings; these constants are the taxonomy the MapReduce layers
// emit. Scheduler-driven attempt spans use the task's timeline group
// ("map", "fetch", "reduce") as their kind, so the trace vocabulary
// matches Result.Timeline.
const (
	// KindJob covers one engine Run from submit to final stats.
	KindJob = "job"
	// KindMap / KindFetch / KindReduce are per-attempt task spans.
	KindMap    = "map"
	KindFetch  = "fetch"
	KindReduce = "reduce"
	// KindCombine covers one combiner pass over a sorted run or merge.
	KindCombine = "combine"
	// KindSpill covers one map-side sort-and-spill: partition bucketing,
	// the in-bucket key sort, and the per-partition run writes. Its
	// "parallelism" attribute records the Job.SpillParallelism the spill
	// ran under.
	KindSpill = "spill"
	// KindSharedSpill / KindSharedMerge cover anticombine.Shared writing
	// a spill run and merging accumulated runs.
	KindSharedSpill = "shared-spill"
	KindSharedMerge = "shared-merge"
	// Cluster-runtime spans: KindWorker covers one worker's lifetime in
	// the coordinator's view (register to death/shutdown), KindHeartbeat
	// a missed-heartbeat detection event, KindLease one task lease from
	// grant to report, and KindReexec the scheduler re-executing an
	// already-committed task because its output was lost with a worker.
	KindWorker    = "worker"
	KindHeartbeat = "heartbeat"
	KindLease     = "lease"
	KindReexec    = "re-execute"
	// KindChaos marks one injected fault from the chaos harness
	// (internal/chaos): a zero-length span whose attributes identify the
	// layer, operation, and fault kind, so a failing seed's schedule is
	// reconstructable from the trace alone.
	KindChaos = "chaos"
	// Pipeline-runner spans (internal/dag): KindPipeline covers one
	// pipeline run end to end, KindStage one stage job attempt within an
	// iteration.
	KindPipeline = "pipeline"
	KindStage    = "stage"
)

// Attr is one key-value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(value)}
}

// Span is one completed traced interval.
type Span struct {
	// Kind classifies the span (see the Kind constants).
	Kind string
	// Name identifies the specific operation, e.g. "map/3" or a spill
	// file name.
	Name string
	// Start / End bound the interval.
	Start time.Time
	End   time.Time
	// Attrs carries key-value annotations (attempt number, byte counts,
	// outcome, ...).
	Attrs []Attr
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Attr returns the value of a named attribute, or "" when absent.
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Tracer collects spans from concurrently running tasks. A nil Tracer
// is a valid disabled sink: Start returns nil and Record does nothing.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Record appends one already-measured span, the retroactive form used
// by layers that have their own timestamps (e.g. the scheduler's
// completion events). No-op on a nil tracer.
func (t *Tracer) Record(kind, name string, start, end time.Time, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Kind: kind, Name: name, Start: start, End: end, Attrs: attrs})
	t.mu.Unlock()
}

// Start opens a live span ending when End is called on the returned
// ref. On a nil tracer it returns nil, and a nil *SpanRef's End is a
// no-op, so the disabled path is two pointer compares.
func (t *Tracer) Start(kind, name string, attrs ...Attr) *SpanRef {
	if t == nil {
		return nil
	}
	return &SpanRef{t: t, kind: kind, name: name, start: time.Now(), attrs: attrs}
}

// Spans returns a copy of all recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// SpanRef is an open span started by Tracer.Start.
type SpanRef struct {
	t     *Tracer
	kind  string
	name  string
	start time.Time
	attrs []Attr
}

// Annotate adds attributes to the open span. No-op on nil.
func (s *SpanRef) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span and records it, appending any final attributes.
// No-op on nil.
func (s *SpanRef) End(attrs ...Attr) {
	if s == nil {
		return
	}
	s.t.Record(s.kind, s.name, s.start, time.Now(), append(s.attrs, attrs...)...)
}
