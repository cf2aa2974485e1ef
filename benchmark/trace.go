package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

// layer is where a span's self time is charged. One layer per row of
// the per-layer table: the benchmark's own driver loop, user code, the
// engine's map, combine and reduce sides, anticombine's encoder and
// decoder, the map-output codec, the file system and the transport.
type layer uint8

const (
	layerDriver     layer = iota // stepped driver loop between tasks
	layerUserMap                 // user Map, map phase
	layerUserReduce              // user Reduce
	layerReexecMap               // user Map re-executed by AntiReducer (LazySH)
	layerMapTask                 // ExecMapTask outside Map calls: split scan, final spill and merge
	layerCollect                 // the engine's map-side Emit, in-line spills included
	layerCombine                 // the job's own combiner function
	layerMerge                   // ExecReduceTask outside Reduce calls, the engine's Next and output collection
	layerEncode                  // AntiMapper: capture, grouping, encoding choice
	layerDecode                  // AntiReducer (and its combiner form): decode and Shared
	layerCompress                // Job.Codec writers
	layerDecompress              // Job.Codec readers
	layerFSWrite                 // Job.FS Create, Write, Close, Remove
	layerFSRead                  // Job.FS Open, Read, Close, Size, List
	layerFetch                   // ConnPool.Fetch and the copy to the reducer's file system
	numLayers
)

var layerNames = [numLayers]string{
	"driver", "user.map", "user.reduce", "anticombine.reexec_map", "mr.map_finish",
	"mr.collect", "mr.combine", "mr.merge", "anticombine.encode", "anticombine.decode",
	"codec.compress", "codec.decompress", "iokit.write", "iokit.read", "transport.fetch",
}

// maxKeptSpans bounds the spans of one layer kept for the Chrome trace.
// Every span is timed and counted; a workload emits millions of
// Emit-sized spans, so only the first maxKeptSpans per layer are kept
// as individual records.
const maxKeptSpans = 5000

// span is one kept trace record. Parent is the index of the nearest
// kept ancestor in tracer.spans, -1 for the root.
type span struct {
	name       string
	layer      layer
	start, end time.Duration // since tracer.origin
	parent     int32
}

type frame struct {
	layer layer
	start time.Duration
	child time.Duration // time covered by direct children
	kept  int32         // index of this span in tracer.spans, or of its nearest kept ancestor
	own   bool          // kept refers to this very span
}

// layerTotals accumulates every span of a layer, kept or not.
type layerTotals struct {
	self  time.Duration // span time minus direct children
	total time.Duration // span time, children included
	spans int64
}

// tracer times one stepped job. The stepped driver runs every task on
// the calling goroutine, so spans nest strictly and a stack suffices: a
// span's self time is its duration minus its children's, and the self
// times of all layers add up to the root span exactly.
type tracer struct {
	job    string // span job id: "<workload>/<variant>"
	origin time.Time
	stack  []frame
	layers [numLayers]layerTotals
	kept   [numLayers]int
	spans  []span

	partitionCalls int64
	codecRaw       [2]int64 // bytes into compress, out of decompress
	codecOut       [2]int64 // bytes out of compress, into decompress
	fs             fsCounts
	// encoded samples the records crossing the AntiMapper → engine
	// boundary — exactly what the job's segments hold — for the
	// direct-call micro measurements.
	encoded []sampledRecord
	seen    int64
}

type fsCounts struct {
	writeBytes, readBytes int64
	writeOps, readOps     int64
	created               int64
}

type sampledRecord struct{ key, value []byte }

func newTracer(job string) *tracer {
	return &tracer{job: job, origin: time.Now(), stack: make([]frame, 0, 32)}
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// top is the layer of the innermost open span.
func (t *tracer) top() layer { return t.stack[len(t.stack)-1].layer }

func (t *tracer) begin(l layer) { t.beginNamed(l, "") }

// beginNamed opens a span; an empty name reads as the layer's name.
func (t *tracer) beginNamed(l layer, name string) {
	f := frame{layer: l, kept: -1}
	if n := len(t.stack); n > 0 {
		f.kept = t.stack[n-1].kept
	}
	if t.kept[l] < maxKeptSpans {
		t.kept[l]++
		if name == "" {
			name = layerNames[l]
		}
		t.spans = append(t.spans, span{name: name, layer: l, parent: f.kept})
		f.kept, f.own = int32(len(t.spans)-1), true
	}
	f.start = t.now()
	t.stack = append(t.stack, f)
}

func (t *tracer) end() {
	now := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	lt := &t.layers[f.layer]
	lt.self += d - f.child
	lt.total += d
	lt.spans++
	if f.own {
		t.spans[f.kept].start, t.spans[f.kept].end = f.start, now
	}
	if n > 0 {
		t.stack[n-1].child += d
	}
}

func (t *tracer) selfSeconds(l layer) float64  { return t.layers[l].self.Seconds() }
func (t *tracer) totalSeconds(l layer) float64 { return t.layers[l].total.Seconds() }

// printSelfTimes prints the traced job's self time per layer for humans.
// It is the only place the Original's layers are reported: the declared
// per-layer metrics describe the AdaptiveSH job.
func (t *tracer) printSelfTimes(wall float64) {
	fmt.Printf("-- %s stepped and traced: %.6g s; self time by layer\n", t.job, wall)
	for l := layer(0); l < numLayers; l++ {
		if lt := t.layers[l]; lt.spans > 0 {
			fmt.Printf("   %-24s %10.6f s %5.1f %%  (%d spans)\n",
				layerNames[l], lt.self.Seconds(), 100*lt.self.Seconds()/wall, lt.spans)
		}
	}
}

// writeChromeTraces writes the kept spans of a workload's traced jobs
// as one Chrome trace-event file through obs.Tracer, the repository's own
// sink: one group of lanes per layer, the jobs one after the other on the
// time axis, args carrying each span's job, id and parent.
func writeChromeTraces(path string, tracers ...*tracer) error {
	sink := obs.NewTracer()
	for _, t := range tracers {
		for id, s := range t.spans {
			sink.Record(layerNames[s.layer], s.name, t.origin.Add(s.start), t.origin.Add(s.end),
				obs.Str("job", t.job), obs.Int("id", int64(id)), obs.Int("parent", int64(s.parent)))
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := sink.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
