package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/iokit"
	"repro/internal/mr"
)

const (
	fleetWorkers = 2
	fleetSlots   = 1
	jobTimeout   = 2 * time.Minute

	// A worker's heartbeats share one RPC connection with its reports. A
	// reduce report carrying sort_cluster's output (≈ 20 MB of records)
	// holds that connection for longer than the default 4 × 50 ms
	// liveness window, so with defaults the fleet declares both workers
	// dead mid-job and the job never finishes. Liveness detection is not
	// what these workloads measure: widen the window and the per-call
	// deadline until no healthy worker can miss them.
	heartbeatMiss = 200 // × 50 ms = 10 s
	rpcTimeout    = 30 * time.Second
)

// fleetEnv is the 2-worker fleet the cluster workloads run on: one
// cluster.Fleet plus two in-process cluster.RunWorker goroutines of one
// slot each, shuffling over loopback TCP with wire compression on. Each
// worker has its own file system: an OSFS temp directory when the
// workload asks for disk, a MemFS otherwise. A disk worker keeps the raw
// OSFS (no tracking wrapper) so the segment server's sendfile path stays
// live; handle leaks are caught by counting the process's descriptors.
type fleetEnv struct {
	fleet   *cluster.Fleet
	cancel  context.CancelFunc
	workers sync.WaitGroup
	dirs    []string
}

func startFleet(disk bool, scratch string) (*fleetEnv, error) {
	fleet, err := cluster.NewFleet(cluster.FleetConfig{HeartbeatMiss: heartbeatMiss})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleetEnv{fleet: fleet, cancel: cancel}
	for i := 0; i < fleetWorkers; i++ {
		var fs iokit.FS = iokit.NewMemFS()
		if disk {
			dir, err := tempDir(scratch, "worker-")
			if err != nil {
				f.close()
				return nil, err
			}
			f.dirs = append(f.dirs, dir)
			fs = iokit.NewOSFS(dir)
		}
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			err := cluster.RunWorker(ctx, cluster.WorkerOptions{
				Coordinator:     fleet.Addr(),
				Slots:           fleetSlots,
				FS:              fs,
				WireCompression: true,
				RPCTimeout:      rpcTimeout,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: fleet worker:", err)
			}
		}()
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if err := fleet.WaitWorkers(wctx, fleetWorkers); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// run submits one job and waits for its result. The measured jobs go
// the way the job service sends them — a JobSpec with only its Ref, so
// every runnable task is queued with the fleet and the two slots are the
// only concurrency limit. The legacy Exclusive shape is avoided on
// purpose: it folds worker-lifetime gauges (bytes served, dials, RPC
// retries) into Result.Stats, which on a fleet that outlives one job
// grow with every job run before. submitted is the instant Submit was
// called, the origin of the cluster layer's first-start metrics.
func (f *fleetEnv) run(spec cluster.JobSpec) (res *mr.Result, submitted time.Time, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	submitted = time.Now()
	h, err := f.fleet.Submit(ctx, spec)
	if err != nil {
		return nil, submitted, err
	}
	res, err = h.Wait(ctx)
	return res, submitted, err
}

// close shuts the fleet down in the order that lets workers leave
// cleanly: announce shutdown, wait for both workers to return, then
// stop the listener and remove the scratch directories.
func (f *fleetEnv) close() {
	f.fleet.Shutdown()
	done := make(chan struct{})
	go func() { f.workers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		f.cancel() // a worker that missed the announcement: hard stop
		<-done
	}
	f.cancel()
	f.fleet.Close()
	for _, dir := range f.dirs {
		os.RemoveAll(dir)
	}
}

// tempDir makes a fresh directory under scratch, creating scratch first.
func tempDir(scratch, pattern string) (string, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratch, pattern)
}
