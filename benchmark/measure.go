package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/iokit"
	"repro/internal/mr"
)

// options are the knobs of one benchmark invocation.
type options struct {
	seed    uint64
	seconds float64 // measured window per workload; reps run until it has passed
	reps    int     // > 0 fixes the rep count instead; only the smoke test sets it
	scale   float64
}

const (
	// minReps is the fewest measured Original/AdaptiveSH pairs a median is
	// taken over, however short the window.
	minReps = 3
	// setupsPerRun is how many times a run does the whole set-up; setup_s
	// is their median, so that one slow fleet start or page-fault burst
	// does not read as a set-up regression: setup_s is gated between
	// commits like every other end-to-end metric.
	setupsPerRun = 3
)

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readRuntimeMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

func heapAllocBytes() float64 { return readRuntimeMetric("/gc/heap/allocs:bytes") }

// hygiene snapshots what a workload must give back: goroutines and
// file descriptors. The throw-away listener initialises the runtime's
// network poller first, whose descriptors stay open for the life of the
// process and would otherwise read as a leak.
type hygiene struct{ goroutines, fds int }

func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0 // no procfs: the descriptor check degrades to a no-op
	}
	return len(ents)
}

func hygieneBaseline() hygiene {
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	return hygiene{runtime.NumGoroutine(), openFDs()}
}

// settled waits for goroutines and descriptors to return to base —
// connection readers and RPC servers unwind shortly after their peers
// close — and reports what is still outstanding after the grace period.
func (base hygiene) settled() (now hygiene, ok bool) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		now = hygiene{runtime.NumGoroutine(), openFDs()}
		if now.goroutines <= base.goroutines && now.fds <= base.fds {
			return now, true
		}
		if time.Now().After(deadline) {
			return now, false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sample is what one job run yields for the end-to-end metrics.
type sample struct {
	wall, cpu                  float64 // seconds
	allocMB, shuffleMB, diskMB float64
}

const mb = 1e6

func shuffleBytes(st mr.Stats) int64 {
	if wire, ok := st.Extra[mr.CounterShuffleWireBytes]; ok {
		return wire
	}
	return st.ShuffleBytes
}

// diskBytes is Table 2's disk traffic. A fleet job's Stats sum what its
// task attempts metered; the segment servers' reads happen outside any
// attempt, and are exactly the bytes the fetches moved.
func diskBytes(res *mr.Result) int64 {
	disk := res.Stats.DiskReadBytes + res.Stats.DiskWriteBytes
	if res.MeasuredShuffle != nil {
		disk += res.MeasuredShuffle.Bytes
	}
	return disk
}

// session is one set-up of a workload: generated input, the fleet when
// the workload needs one, and the reference digest every run must match.
type session struct {
	w       *workload
	seed    uint64
	records int
	in      *input
	fleet   *fleetEnv
	ref     string
	out     *result
}

// setup does everything that precedes the first measured rep: generate
// and materialise the input, start the fleet, compute the reference
// digest from an in-process Original run and run one warm-up pair.
func setup(w *workload, seed uint64, records int, scratch string, out *result) (*session, error) {
	s := &session{w: w, seed: seed, records: records, out: out}
	s.in = w.generate(seed, records)
	if w.fleet {
		fleet, err := startFleet(w.disk, scratch)
		if err != nil {
			return nil, fmt.Errorf("starting fleet: %w", err)
		}
		s.fleet = fleet
	}
	res, err := s.runEngine(w.buildJob(orig, nil))
	if err != nil {
		s.close()
		return nil, fmt.Errorf("reference run: %w", err)
	}
	s.ref = experiments.RecordsDigest(res)
	for _, v := range variants {
		if _, _, err := s.run(v); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", v, err)
		}
	}
	return s, nil
}

func (s *session) close() {
	if s.fleet != nil {
		s.fleet.close()
		s.fleet = nil
	}
	inputs.Delete(inputKey{s.w.name, s.seed, s.records})
}

// runEngine runs job on the in-process engine over a fresh tracked
// MemFS and fails the run on a leaked file handle.
func (s *session) runEngine(job *mr.Job) (*mr.Result, error) {
	s.out.Attempted++
	track := &iokit.TrackFS{Inner: iokit.NewMemFS()}
	job.FS = track
	res, err := mr.Run(job, s.in.splits)
	if err == nil && track.OpenHandles() != 0 {
		err = fmt.Errorf("%d file handles left open", track.OpenHandles())
	}
	if err != nil {
		s.out.fail("%s %s: %v", s.w.name, job.Name, err)
	}
	return res, err
}

// check fails the run when its output differs from the reference.
func (s *session) check(what string, res *mr.Result) error {
	if got := experiments.RecordsDigest(res); got != s.ref {
		err := fmt.Errorf("output digest %.12s… differs from reference %.12s…", got, s.ref)
		s.out.fail("%s %s: %v", s.w.name, what, err)
		return err
	}
	return nil
}

// run executes one variant on the workload's engine — a closed loop
// with one job in flight — measuring from the Run/Submit call to the
// complete result in hand, and checks the output.
func (s *session) run(v variant) (sample, *mr.Result, error) {
	var (
		res *mr.Result
		err error
	)
	runtime.GC()
	cpu0, alloc0, t0 := cpuSeconds(), heapAllocBytes(), time.Now()
	if s.fleet != nil {
		s.out.Attempted++
		res, _, err = s.fleet.run(s.w.fleetJob(s.seed, s.records, v))
		if err != nil {
			s.out.fail("%s %s on fleet: %v", s.w.name, v, err)
		}
	} else {
		res, err = s.runEngine(s.w.buildJob(v, nil))
	}
	smp := sample{
		wall:    time.Since(t0).Seconds(),
		cpu:     cpuSeconds() - cpu0,
		allocMB: (heapAllocBytes() - alloc0) / mb,
	}
	if err != nil {
		return smp, nil, err
	}
	smp.shuffleMB = float64(shuffleBytes(res.Stats)) / mb
	smp.diskMB = float64(diskBytes(res)) / mb
	return smp, res, s.check(string(v), res)
}

// measure runs the untraced protocol on one workload and fills out with
// the end-to-end metrics: setup_s over setupsPerRun complete set-ups, and
// per variant the median wall, CPU, allocation, shuffle and disk figures
// of the measured reps, which alternate Original and AdaptiveSH.
func measure(w *workload, opt options, scratch string, out *result) error {
	records := w.scaled(opt.scale)
	base := hygieneBaseline()

	var (
		s      *session
		setupS []float64
	)
	for i := 0; i < setupsPerRun; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setup(w, opt.seed, records, scratch, out); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	out.Metrics["setup_s"] = medianMetric(setupS)

	samples := map[variant][]sample{}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for rep := 1; ; rep++ {
		for _, v := range variants {
			smp, _, err := s.run(v)
			if err != nil {
				s.close()
				return err
			}
			samples[v] = append(samples[v], smp)
		}
		if opt.reps > 0 && rep >= opt.reps {
			break
		}
		if opt.reps == 0 && rep >= minReps && time.Now().After(deadline) {
			break
		}
	}
	s.close()

	for _, v := range variants {
		column := func(f func(sample) float64) metric {
			xs := make([]float64, len(samples[v]))
			for i, smp := range samples[v] {
				xs[i] = f(smp)
			}
			return medianMetric(xs)
		}
		p := string(v) + "_"
		out.Metrics[p+"wall_s"] = column(func(s sample) float64 { return s.wall })
		out.Metrics[p+"cpu_s"] = column(func(s sample) float64 { return s.cpu })
		out.Metrics[p+"alloc_mb"] = column(func(s sample) float64 { return s.allocMB })
		out.Metrics[p+"shuffle_mb"] = column(func(s sample) float64 { return s.shuffleMB })
		out.Metrics[p+"disk_mb"] = column(func(s sample) float64 { return s.diskMB })
	}
	checkHygiene(w, base, out)
	return nil
}

// checkHygiene counts one failed operation when the workload did not
// return the goroutines and descriptors it started with.
func checkHygiene(w *workload, base hygiene, out *result) hygiene {
	now, ok := base.settled()
	if !ok {
		out.Attempted++
		out.fail("%s leaked: goroutines %d → %d, descriptors %d → %d",
			w.name, base.goroutines, now.goroutines, base.fds, now.fds)
	}
	return now
}

func scratchDir(spec *benchSpec) string { return filepath.Join(spec.outDir(), "scratch") }
