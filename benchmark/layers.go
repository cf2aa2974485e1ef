package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/anticombine"
	"repro/internal/bytesx"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/mr"
	"repro/internal/obs"
	"repro/internal/sched"
)

// baselineReps is how many untraced runs each baseline median of the
// traced pass is taken over.
const baselineReps = 3

// traceWorkload is the traced pass: one stepped, fully decorated
// Original and AdaptiveSH job, surrounded by the untraced runs the layer
// ratios need. Per-layer numbers come only from here and describe the
// AdaptiveSH job; the Original's self times go to the human-readable
// output and the Chrome trace.
func traceWorkload(w *workload, opt options, spec *benchSpec, out *result) error {
	records := w.scaled(opt.scale)
	scratch := scratchDir(spec)
	base := hygieneBaseline()

	s := &session{w: w, seed: opt.seed, records: records, out: out}
	s.in = w.generate(opt.seed, records)
	defer s.close()
	out.set("datagen.gen_s", s.in.genTime.Seconds())
	out.set("datagen.input_mb", float64(s.in.bytes)/mb)
	out.set("datagen.input_records", float64(s.in.records))

	res, err := s.runEngine(w.buildJob(orig, nil))
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	s.ref = experiments.RecordsDigest(res)

	// Untraced in-process AdaptiveSH runs, alternating with the same job
	// carrying an obs.Tracer and Registry: the tracing budget, the
	// baseline the stepped run's overhead is read against, and the
	// process-level GC figures of one job.
	inproc, err := s.inProcessBaseline(out)
	if err != nil {
		return err
	}

	var tracers []*tracer
	for _, v := range variants {
		t := newTracer(w.name + "/" + string(v))
		run, err := s.stepped(v, t, scratch)
		if err != nil {
			return err
		}
		tracers = append(tracers, t)
		t.printSelfTimes(run.wall)
		if v == anti {
			out.set("trace.overhead_frac", run.wall/inproc.wall-1)
			layerMetrics(run, out)
			antiMetrics(run, out)
			transportMetrics(run.transport, out)
			out.set("iokit.open_handles_end", float64(run.handles))
		}
	}
	if err := os.MkdirAll(spec.outDir(), 0o755); err != nil {
		return err
	}
	if err := writeChromeTraces(filepath.Join(spec.outDir(), "trace-"+w.name+".json"), tracers...); err != nil {
		return err
	}

	if err := s.clusterMetrics(scratch, inproc.wall, out); err != nil {
		return err
	}
	out.set("sched.dispatch_us_per_task", schedDispatch(w))
	out.set("sched.queue_wait_s", queueWait(inproc.timeline))
	out.set("sched.map_reduce_overlap_s", mapReduceOverlap(inproc.timeline))

	s.close()
	now := checkHygiene(w, base, out)
	out.set("proc.goroutines_end", float64(now.goroutines-base.goroutines))
	out.set("proc.peak_rss_mb", peakRSSMB())
	return nil
}

type inProcess struct {
	wall     float64 // median untraced in-process AdaptiveSH wall
	timeline []sched.Attempt
}

func (s *session) inProcessBaseline(out *result) (inProcess, error) {
	var off, on []float64
	var in inProcess
	var gcCPU0, gcN0, gcCPU, gcN float64
	for rep := 0; rep < baselineReps; rep++ {
		for _, observed := range []bool{false, true} {
			job := s.w.buildJob(anti, nil)
			if observed {
				job.Tracer, job.Metrics = obs.NewTracer(), obs.NewRegistry()
			}
			runtime.GC()
			if !observed {
				gcCPU0 = readRuntimeMetric("/cpu/classes/gc/total:cpu-seconds")
				gcN0 = readRuntimeMetric("/gc/cycles/total:gc-cycles")
			}
			t0 := time.Now()
			res, err := s.runEngine(job)
			wall := time.Since(t0).Seconds()
			if err != nil {
				return in, err
			}
			if err := s.check("in-process baseline", res); err != nil {
				return in, err
			}
			if observed {
				on = append(on, wall)
				continue
			}
			off = append(off, wall)
			gcCPU += readRuntimeMetric("/cpu/classes/gc/total:cpu-seconds") - gcCPU0
			gcN += readRuntimeMetric("/gc/cycles/total:gc-cycles") - gcN0
			in.timeline = res.Timeline
		}
	}
	in.wall = median(off)
	out.set("obs.tracer_on_wall_x", median(on)/in.wall)
	out.set("proc.gc_cpu_s", gcCPU/baselineReps)
	out.set("proc.gc_cycles", gcN/baselineReps)
	return in, nil
}

// layerMetrics reports the traced AdaptiveSH job's self times and counts.
func layerMetrics(run *steppedRun, out *result) {
	t, st := run.t, run.stats

	out.set("trace.job_s", run.wall)
	out.set("trace.driver_s", t.selfSeconds(layerDriver))
	var accounted time.Duration
	for l := layerDriver + 1; l < numLayers; l++ {
		accounted += t.layers[l].self
	}
	out.set("trace.accounted_frac", accounted.Seconds()/t.totalSeconds(layerDriver))
	out.set("user.map_s", t.selfSeconds(layerUserMap))
	out.set("user.reduce_s", t.selfSeconds(layerUserReduce))
	out.set("mr.map_task_s", t.totalSeconds(layerMapTask))
	out.set("mr.collect_s", t.selfSeconds(layerCollect))
	out.set("mr.map_finish_s", t.selfSeconds(layerMapTask))
	out.set("mr.spills", float64(st.Spills))
	out.set("mr.map_out_mb", float64(st.MapOutputBytes)/mb)
	out.set("mr.map_out_records", float64(st.MapOutputRecords))
	out.set("mr.partition_calls", float64(t.partitionCalls))
	out.set("mr.combine_s", t.selfSeconds(layerCombine))
	out.set("mr.combine_in_records", float64(st.CombineInputRecords))
	out.set("mr.combine_out_records", float64(st.CombineOutputRecords))
	out.set("mr.combine_keep_frac", ratio(float64(st.CombineOutputRecords), float64(st.CombineInputRecords)))
	out.set("mr.reduce_task_s", t.totalSeconds(layerMerge))
	out.set("mr.merge_s", t.selfSeconds(layerMerge))
	out.set("mr.reduce_in_records", float64(st.ReduceInputRecords))
	out.set("mr.reduce_out_records", float64(st.ReduceOutputRecords))
	out.set("codec.compress_s", t.selfSeconds(layerCompress))
	out.set("codec.decompress_s", t.selfSeconds(layerDecompress))
	out.set("codec.raw_mb", float64(t.codecRaw[compressSide])/mb)
	out.set("codec.out_mb", float64(t.codecOut[compressSide])/mb)
	out.set("codec.ratio", ratio(float64(t.codecRaw[compressSide]), float64(t.codecOut[compressSide])))
	out.set("iokit.write_s", t.selfSeconds(layerFSWrite))
	out.set("iokit.read_s", t.selfSeconds(layerFSRead))
	out.set("iokit.write_mb", float64(t.fs.writeBytes)/mb)
	out.set("iokit.read_mb", float64(t.fs.readBytes)/mb)
	out.set("iokit.write_ops", float64(t.fs.writeOps))
	out.set("iokit.read_ops", float64(t.fs.readOps))
	out.set("iokit.files_created", float64(t.fs.created))
}

// ratio is a/b, and 0 when the layer saw no work at all.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// antiMetrics reports the anticombine layer of the traced AdaptiveSH
// job, and the direct-call costs of its three primitives on the encoded
// records sampled from that job's own map output.
func antiMetrics(run *steppedRun, out *result) {
	t, extra := run.t, run.stats.Extra
	out.set("anticombine.encode_s", t.selfSeconds(layerEncode))
	out.set("anticombine.decode_s", t.selfSeconds(layerDecode))
	out.set("anticombine.reexec_map_s", t.selfSeconds(layerReexecMap))
	out.set("anticombine.reexec_maps", float64(extra[anticombine.CounterMapReexec]))
	out.set("anticombine.eager_records", float64(extra[anticombine.CounterEagerRecords]))
	out.set("anticombine.lazy_records", float64(extra[anticombine.CounterLazyRecords]))
	out.set("anticombine.plain_records", float64(extra[anticombine.CounterPlainRecords]))
	out.set("anticombine.shared_spills", float64(extra[anticombine.CounterSharedSpills]))
	out.set("anticombine.shared_merges", float64(extra[anticombine.CounterSharedMerges]))
	saved := 0.0
	if origBytes := extra[anticombine.CounterOrigMapBytes]; origBytes > 0 {
		saved = 1 - float64(run.stats.MapOutputBytes)/float64(origBytes)
	}
	out.set("anticombine.bytes_saved_frac", saved)

	enc, dec, shared := directCalls(t.encoded)
	out.set("anticombine.eager_encode_ns_per_rec", enc)
	out.set("anticombine.decode_ns_per_rec", dec)
	out.set("anticombine.shared_addpop_ns_per_rec", shared)
}

// directCalls times anticombine's exported primitives on sampled
// encoded records, outside any job: DecodeValue, re-encoding each
// record in the encoding it arrived in, and Shared Add followed by
// PopMinKeyValues. Each loop repeats until it has run for a while so
// the per-record figure is not a clock-resolution artefact.
func directCalls(samples []sampledRecord) (encodeNs, decodeNs, sharedNs float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	const minRun = 30 * time.Millisecond
	perRecord := func(pass func() int) float64 {
		var n int
		start := time.Now()
		for time.Since(start) < minRun {
			n += pass()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n)
	}

	decoded := make([]anticombine.Decoded, len(samples))
	decodeNs = perRecord(func() int {
		for i, s := range samples {
			decoded[i], _ = anticombine.DecodeValue(s.value) // the job decoded these same bytes
		}
		return len(samples)
	})

	var buf []byte
	encodeNs = perRecord(func() int {
		for _, d := range decoded {
			switch d.Enc {
			case anticombine.EncEager:
				buf = anticombine.AppendEagerValue(buf[:0], d.OtherKeys, d.Value)
			case anticombine.EncLazy:
				buf = anticombine.AppendLazyValue(buf[:0], d.InputKey, d.InputValue)
			default:
				buf = anticombine.AppendPlainValue(buf[:0], d.Value)
			}
		}
		return len(decoded)
	})

	sharedNs = perRecord(func() int {
		sh := anticombine.NewShared(anticombine.SharedConfig{
			KeyCompare: bytesx.Bytes, MemLimitBytes: 1 << 30, // never spills: no FS is given
		})
		adds := 0
		for i, d := range decoded {
			value := d.Value
			if d.Enc == anticombine.EncLazy {
				value = d.InputValue // stands in for the re-executed Map's output
			}
			sh.Add(samples[i].key, value)
			adds++
			for _, k := range d.OtherKeys {
				sh.Add(k, value)
				adds++
			}
		}
		for !sh.Empty() {
			sh.PopMinKeyValues()
		}
		sh.Close()
		return adds
	})
	return encodeNs, decodeNs, sharedNs
}

func transportMetrics(ts *transportStats, out *result) {
	if ts == nil {
		ts = &transportStats{} // in-process workloads have no transport: all zero
	}
	out.set("transport.fetches", float64(ts.fetches))
	out.set("transport.fetch_s", ts.fetchS)
	out.set("transport.fetch_p50_ms", ts.p50ms)
	out.set("transport.fetch_p90_ms", ts.p90ms)
	out.set("transport.fetch_samples", float64(ts.samples))
	out.set("transport.mb_per_s", ts.mbPerS)
	out.set("transport.raw_mb", ts.rawMB)
	out.set("transport.wire_mb", ts.wireMB)
	out.set("transport.dials", float64(ts.dials))
	out.set("transport.mux_sessions", float64(ts.muxSessions))
	out.set("transport.mux_streams_per_session", ts.streamsPerSess)
	out.set("transport.seq_vs_mux_x", ts.seqVsMux)
}

var clusterNames = []string{
	"cluster.lease_wait_s", "cluster.attempt_overhead_s", "cluster.map_busy_s", "cluster.fetch_busy_s",
	"cluster.reduce_busy_s", "cluster.idle_frac", "cluster.submit_to_first_start_ms", "cluster.first_task_overhead_ms",
	"cluster.attempts", "cluster.retries", "cluster.rpc_retries", "cluster.shuffle_extent_s",
	"cluster.shuffle_mb_per_s", "cluster.vs_inprocess_x",
}

// clusterMetrics reads the fleet's control plane from the public
// outputs of untraced fleet jobs — Result.Timeline, the task times and
// MeasuredShuffle — one warm-up and baselineReps measured AdaptiveSH runs,
// each metric the median over the measured runs. One last job in the
// Exclusive shape, outside the medians, may claim the workers' lifetime
// gauges: its RPC-retry counter is the fleet's total over all these
// jobs. In-process workloads report zeros.
func (s *session) clusterMetrics(scratch string, inprocWall float64, out *result) error {
	if !s.w.fleet {
		for _, name := range clusterNames {
			out.set(name, 0)
		}
		return nil
	}
	fleet, err := startFleet(s.w.disk, scratch)
	if err != nil {
		return fmt.Errorf("starting fleet: %w", err)
	}
	s.fleet = fleet // session.close shuts it down
	samples := map[string][]float64{}
	job := s.w.fleetJob(s.seed, s.records, anti)
	for rep := 0; rep <= baselineReps+1; rep++ {
		job.Exclusive = rep > baselineReps
		s.out.Attempted++
		t0 := time.Now()
		res, submitted, err := fleet.run(job)
		wall := time.Since(t0).Seconds()
		if err != nil {
			s.out.fail("%s job on fleet: %v", s.w.name, err)
			return err
		}
		if err := s.check("job on fleet", res); err != nil {
			return err
		}
		if rep == 0 {
			continue // warm-up: workers build the job and dial each other
		}
		if job.Exclusive {
			samples["cluster.rpc_retries"] = []float64{float64(res.Stats.Extra[cluster.CounterRPCRetries])}
			break
		}
		for name, v := range controlPlane(res, submitted, wall) {
			samples[name] = append(samples[name], v)
		}
		samples["cluster.vs_inprocess_x"] = append(samples["cluster.vs_inprocess_x"], wall/inprocWall)
	}
	for _, name := range clusterNames {
		out.Metrics[name] = medianMetric(samples[name])
	}
	return nil
}

// controlPlane derives one fleet run's cluster-layer figures.
func controlPlane(res *mr.Result, submitted time.Time, wall float64) map[string]float64 {
	var (
		leaseWait  time.Duration // queued → started, summed over attempts
		inAttempts time.Duration // started → finished, summed over attempts
		retries    float64
		firstStart time.Time
		firstDone  sched.Attempt // always a map task: all other tasks depend on one
	)
	for _, a := range res.Timeline {
		leaseWait += a.Started.Sub(a.Queued)
		inAttempts += a.Finished.Sub(a.Started)
		if a.Attempt > 0 {
			retries++
		}
		if firstStart.IsZero() || a.Started.Before(firstStart) {
			firstStart = a.Started
		}
		if firstDone.Finished.IsZero() || a.Finished.Before(firstDone.Finished) {
			firstDone = a
		}
	}
	// What the first task to finish cost beyond its own run time: the
	// worker fetching and building the job, the first lease grant and the
	// report. No slot wait is in it — both slots are free at submit.
	firstOverhead := firstDone.Finished.Sub(submitted)
	var mapBusy, reduceBusy time.Duration
	for i, d := range res.MapTaskTimes {
		mapBusy += d
		if mr.MapTaskName(i) == firstDone.Task {
			firstOverhead -= d
		}
	}
	for _, d := range res.ReduceTaskTimes {
		reduceBusy += d
	}
	shuffle := res.MeasuredShuffle
	busy := mapBusy + reduceBusy + shuffle.FetchTime
	return map[string]float64{
		// The scheduler's queued → started. A job submitted the job
		// service's way exposes every runnable task to the fleet at once
		// (sched width = task count), so nothing waits here; the waiting is
		// inside the attempt, in the line below.
		"cluster.lease_wait_s": leaseWait.Seconds(),
		// What a started attempt holds besides task code: waiting for a
		// free worker slot and the lease grant, the lease and report
		// round trips.
		"cluster.attempt_overhead_s":       (inAttempts - busy).Seconds(),
		"cluster.map_busy_s":               mapBusy.Seconds(),
		"cluster.fetch_busy_s":             shuffle.FetchTime.Seconds(),
		"cluster.reduce_busy_s":            reduceBusy.Seconds(),
		"cluster.idle_frac":                1 - busy.Seconds()/(fleetWorkers*fleetSlots*wall),
		"cluster.submit_to_first_start_ms": firstStart.Sub(submitted).Seconds() * 1e3,
		"cluster.first_task_overhead_ms":   firstOverhead.Seconds() * 1e3,
		"cluster.attempts":                 float64(len(res.Timeline)),
		"cluster.retries":                  retries,
		"cluster.shuffle_extent_s":         shuffle.Extent.Seconds(),
		"cluster.shuffle_mb_per_s":         ratio(float64(shuffle.Bytes)/mb, shuffle.Extent.Seconds()),
	}
}

// schedDispatch is sched.Run's cost per task over a graph of the
// job's shape — map/i → fetch/p/i → reduce/p — whose tasks do nothing.
func schedDispatch(w *workload) float64 {
	var tasks []sched.Task
	noop := func(context.Context, *sched.TaskContext) (any, error) { return nil, nil }
	for i := 0; i < w.splits; i++ {
		tasks = append(tasks, sched.Task{Name: mr.MapTaskName(i), Group: mr.TaskGroupMap, Run: noop})
	}
	for p := 0; p < w.reducers; p++ {
		var deps []string
		for i := 0; i < w.splits; i++ {
			name := mr.FetchTaskName(p, i)
			deps = append(deps, name)
			tasks = append(tasks, sched.Task{
				Name: name, Group: mr.TaskGroupFetch, Deps: []string{mr.MapTaskName(i)}, Run: noop,
			})
		}
		tasks = append(tasks, sched.Task{Name: mr.ReduceTaskName(p), Group: mr.TaskGroupReduce, Deps: deps, Run: noop})
	}
	var perTask []float64
	for rep := 0; rep < 20; rep++ {
		t0 := time.Now()
		if _, err := sched.Run(context.Background(), tasks, sched.Config{}); err != nil {
			return 0
		}
		perTask = append(perTask, float64(time.Since(t0).Microseconds())/float64(len(tasks)))
	}
	return median(perTask)
}

func queueWait(timeline []sched.Attempt) float64 {
	var wait time.Duration
	for _, a := range timeline {
		wait += a.Started.Sub(a.Queued)
	}
	return wait.Seconds()
}

// mapReduceOverlap is how long reduce-side work (fetch and reduce
// tasks) ran while map tasks were still running.
func mapReduceOverlap(timeline []sched.Attempt) float64 {
	return max(sched.Overlap(timeline, mr.TaskGroupMap, mr.TaskGroupFetch),
		sched.Overlap(timeline, mr.TaskGroupMap, mr.TaskGroupReduce)).Seconds()
}
