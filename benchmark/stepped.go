package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/iokit"
	"repro/internal/mr"
)

// steppedRun is one job driven task by task through the public entry
// points: mr.ExecMapTask per split, for fleet workloads a fetch of every
// segment from a real mr.SegmentServer, then mr.ExecReduceTask per
// partition — all on the calling goroutine.
type steppedRun struct {
	t         *tracer
	wall      float64
	stats     mr.Stats
	transport *transportStats // fleet workloads, traced AdaptiveSH job only
	handles   int64           // file handles still open at the end
}

// transportStats is the mr.transport layer as the stepped driver sees it.
type transportStats struct {
	fetches        int     // segment fetches of the job pass
	fetchS         float64 // their summed time, copy to the reducer's FS included
	rawMB, wireMB  float64 // job pass: body bytes, and what they occupied on the wire
	p50ms, p90ms   float64 // per-fetch latency over the drain rounds
	samples        int     // fetches the percentiles are over
	mbPerS         float64 // raw bytes ÷ fetch time over the drain rounds
	dials          int64
	muxSessions    int64
	streamsPerSess float64
	seqVsMux       float64 // sequential round time ÷ multiplexed round time
}

// minFetchSamples is the fewest fetches a latency percentile is
// reported over; the drain rounds repeat until they have that many.
const minFetchSamples = 100

// steppedFS is the file systems one stepped job runs on. In-process
// workloads use one MemFS for both sides. Fleet workloads get a
// mapper's and a reducer's — OSFS directories when the workload runs
// its workers on disk, with the segment server reading the mapper's
// raw OSFS so its sendfile path stays live.
type steppedFS struct {
	mapTrack, redTrack *iokit.TrackFS
	serve              iokit.FS // what the segment server reads; nil in-process
	dirs               []string
}

func newSteppedFS(w *workload, scratch string) (*steppedFS, error) {
	if !w.fleet {
		track := &iokit.TrackFS{Inner: iokit.NewMemFS()}
		return &steppedFS{mapTrack: track, redTrack: track}, nil
	}
	fs := &steppedFS{}
	var raw [2]iokit.FS
	for i := range raw {
		raw[i] = iokit.NewMemFS()
		if w.disk {
			dir, err := tempDir(scratch, "stepped-")
			if err != nil {
				fs.remove()
				return nil, err
			}
			fs.dirs = append(fs.dirs, dir)
			raw[i] = iokit.NewOSFS(dir)
		}
	}
	fs.mapTrack = &iokit.TrackFS{Inner: raw[0]}
	fs.redTrack = &iokit.TrackFS{Inner: raw[1]}
	fs.serve = raw[0]
	return fs, nil
}

func (fs *steppedFS) remove() {
	for _, dir := range fs.dirs {
		os.RemoveAll(dir)
	}
}

func (fs *steppedFS) openHandles() int64 {
	if fs.redTrack == fs.mapTrack {
		return fs.mapTrack.OpenHandles()
	}
	return fs.mapTrack.OpenHandles() + fs.redTrack.OpenHandles()
}

// stepped drives one variant task by task. Every public boundary is
// decorated and the task spans nest under one root span whose duration
// is the run's wall time. SpillParallelism is pinned to
// 1 — the engine's strictly sequential spill path, byte-identical
// output — because the tracer's span stack belongs to one goroutine.
func (s *session) stepped(v variant, t *tracer, scratch string) (*steppedRun, error) {
	w := s.w
	s.out.Attempted++
	run, res, err := s.steppedJob(v, t, scratch)
	if err != nil {
		s.out.fail("%s %s stepped: %v", w.name, v, err)
		return nil, err
	}
	if run.handles != 0 {
		err := fmt.Errorf("%d file handles left open", run.handles)
		s.out.fail("%s %s stepped: %v", w.name, v, err)
		return nil, err
	}
	return run, s.check(string(v)+" stepped", res)
}

func (s *session) steppedJob(v variant, t *tracer, scratch string) (*steppedRun, *mr.Result, error) {
	w := s.w
	job := w.buildJob(v, t)
	job.SpillParallelism = 1

	files, err := newSteppedFS(w, scratch)
	if err != nil {
		return nil, nil, err
	}
	defer files.remove()
	decorate := func(track *iokit.TrackFS, m *iokit.Meter) iokit.FS {
		return iokit.Metered(&tracedFS{inner: track, t: t}, m)
	}
	meter := &iokit.Meter{}
	mapFS := decorate(files.mapTrack, meter)
	redFS := mapFS
	if files.redTrack != files.mapTrack {
		redFS = decorate(files.redTrack, meter)
	}
	counters := &mr.Counters{}
	counters.SetDiskMeter(meter)

	ctx := context.Background()
	run := &steppedRun{t: t}
	start := time.Now()
	t.beginNamed(layerDriver, job.Name)

	// Map phase. Segments are grouped per partition in map-task order,
	// the order ExecReduceTask needs for byte-identical output.
	byPart := make([][]mr.SegmentInfo, w.reducers)
	for i, split := range s.in.splits {
		t.beginNamed(layerMapTask, mr.MapTaskName(i))
		segs, err := mr.ExecMapTask(ctx, job, mapFS, counters, i, 0, split)
		t.end()
		if err != nil {
			return nil, nil, err
		}
		for _, seg := range segs {
			byPart[seg.Partition] = append(byPart[seg.Partition], seg)
		}
	}

	// Shuffle. In-process the reducer reads the mapper's files in place
	// and only the accounting happens here; on the fleet shape every
	// segment crosses a real socket into the reducer's file system.
	var link *shuffleLink
	if files.serve != nil {
		if link, err = newShuffleLink(files.serve); err != nil {
			return nil, nil, err
		}
		defer link.close()
		run.transport = &transportStats{}
	}
	var served []string // mapper-side names of the fetched segments
	for p, segs := range byPart {
		for i, seg := range segs {
			if link == nil {
				size, err := files.mapTrack.Size(seg.File)
				if err != nil {
					return nil, nil, err
				}
				counters.AddShuffle(size, seg.Records)
				continue
			}
			local := fmt.Sprintf("%s/shuffle/r%04d/m%04d", job.Name, p, i)
			t.beginNamed(layerFetch, mr.FetchTaskName(p, i))
			t0 := time.Now()
			raw, wire, err := link.fetchTo(ctx, seg.File, redFS, local)
			run.transport.fetchS += time.Since(t0).Seconds()
			t.end()
			if err != nil {
				return nil, nil, err
			}
			run.transport.fetches++
			run.transport.rawMB += float64(raw) / mb
			run.transport.wireMB += float64(wire) / mb
			counters.AddShuffle(raw, seg.Records)
			served = append(served, seg.File)
			byPart[p][i].File = local
		}
	}

	// Reduce phase.
	res := &mr.Result{Output: make([][]mr.Record, w.reducers)}
	for p, segs := range byPart {
		t.beginNamed(layerMerge, mr.ReduceTaskName(p))
		recs, err := mr.ExecReduceTask(ctx, job, redFS, counters, p, 0, segs)
		t.end()
		if err != nil {
			return nil, nil, err
		}
		res.Output[p] = recs
	}
	t.end()
	run.wall = time.Since(start).Seconds()
	run.stats = counters.Snapshot()

	if link != nil && v == anti {
		if err := link.measure(ctx, served, run.transport); err != nil {
			return nil, nil, err
		}
	}
	if link != nil {
		link.close()
	}
	run.handles = files.openHandles()
	return run, res, nil
}

// shuffleLink is one mapper-side segment server and the reducer-side
// client stack the cluster worker uses: a wire-compressing ConnPool and
// a MuxFetcher over it.
type shuffleLink struct {
	srv  *mr.SegmentServer
	pool *mr.ConnPool
	mux  *mr.MuxFetcher
	once sync.Once
}

func newShuffleLink(serve iokit.FS) (*shuffleLink, error) {
	srv, err := mr.NewSegmentServer(serve, "127.0.0.1:0", &iokit.Meter{})
	if err != nil {
		return nil, err
	}
	pool := mr.NewConnPool()
	pool.WireCompression = true
	return &shuffleLink{srv: srv, pool: pool, mux: mr.NewMuxFetcher(pool)}, nil
}

func (l *shuffleLink) close() {
	l.once.Do(func() {
		l.pool.Close()
		l.srv.Close()
	})
}

type fetchFunc func(ctx context.Context, addr, name string) (io.ReadCloser, int64, error)

// pull fetches one segment through fetch and copies its verified body
// to dst, as cluster.worker.runFetch does, returning raw and wire bytes.
func (l *shuffleLink) pull(ctx context.Context, fetch fetchFunc, name string, dst io.Writer) (raw, wire int64, err error) {
	rc, size, err := fetch(ctx, l.srv.Addr(), name)
	if err != nil {
		return 0, 0, err
	}
	raw, err = io.Copy(dst, mr.NewIntegrityVerifier(rc))
	wire, _ = mr.WireBytes(rc)
	rc.Close()
	if err == nil && raw != size {
		err = fmt.Errorf("fetched %d bytes of %s, want %d", raw, name, size)
	}
	return raw, wire, err
}

func (l *shuffleLink) fetchTo(ctx context.Context, name string, fs iokit.FS, local string) (raw, wire int64, err error) {
	f, err := fs.Create(local)
	if err != nil {
		return 0, 0, err
	}
	raw, wire, err = l.pull(ctx, l.pool.Fetch, name, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return raw, wire, err
}

// measure runs the transport's own passes over the job's segments,
// bodies drained to io.Discard: sequential rounds through ConnPool.Fetch
// until there are minFetchSamples latencies, then the same rounds with
// every fetch of a round issued at once through MuxFetcher.Fetch — the
// concurrency multiplexing was built for.
func (l *shuffleLink) measure(ctx context.Context, files []string, ts *transportStats) error {
	if len(files) == 0 {
		return fmt.Errorf("no segment files to fetch")
	}
	var (
		lat       []float64 // per-fetch seconds
		seqRounds []float64
		rawBytes  int64
	)
	for len(lat) < minFetchSamples {
		var round float64
		for _, name := range files {
			t0 := time.Now()
			raw, _, err := l.pull(ctx, l.pool.Fetch, name, io.Discard)
			if err != nil {
				return err
			}
			d := time.Since(t0).Seconds()
			lat = append(lat, d)
			round += d
			rawBytes += raw
		}
		seqRounds = append(seqRounds, round)
	}
	sort.Float64s(lat)
	var total float64
	for _, d := range lat {
		total += d
	}
	ts.samples = len(lat)
	ts.p50ms = lat[len(lat)/2] * 1e3
	ts.p90ms = lat[len(lat)*9/10] * 1e3
	ts.mbPerS = float64(rawBytes) / mb / total

	var muxRounds []float64
	for range seqRounds {
		t0 := time.Now()
		errs := make(chan error, len(files))
		for _, name := range files {
			go func() {
				_, _, err := l.pull(ctx, l.mux.Fetch, name, io.Discard)
				errs <- err
			}()
		}
		for range files {
			if err := <-errs; err != nil {
				return err
			}
		}
		muxRounds = append(muxRounds, time.Since(t0).Seconds())
	}
	ts.dials = l.pool.Dials()
	ts.muxSessions = l.mux.Sessions()
	if ts.muxSessions > 0 {
		ts.streamsPerSess = float64(l.mux.Muxed()) / float64(ts.muxSessions)
	}
	ts.seqVsMux = median(seqRounds) / median(muxRounds)
	return nil
}
