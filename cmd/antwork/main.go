// Command antwork runs one fleet worker process: it registers with a
// fleet (a standalone coordinator or an antserve daemon), heartbeats,
// pulls task leases across every job the fleet runs, executes them
// against registry-built jobs, and serves its map output to peer
// workers over TCP. antibench spawns workers itself for local
// clusters; antwork exists for running workers under another
// supervisor or on another machine (point -data-addr at a routable
// interface so peers can fetch from it).
//
// SIGTERM (or the first SIGINT) drains gracefully: the worker
// announces the drain to the fleet, takes no new leases, finishes —
// or, after -drain-timeout, hands back — what it is running, then
// deregisters and exits 0. A second signal cancels hard (crash
// semantics: no parting report, the fleet recovers via heartbeats).
//
// Usage:
//
//	antwork -coordinator 127.0.0.1:41234 -slots 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	_ "repro/internal/experiments" // registers the experiment cluster jobs
)

func main() {
	var (
		coord    = flag.String("coordinator", "", "fleet RPC address (required)")
		slots    = flag.Int("slots", runtime.GOMAXPROCS(0), "concurrent task slots")
		data     = flag.String("data-addr", "127.0.0.1:0", "segment server bind address; use a routable host:0 to serve remote peers")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "how long a drain lets running attempts finish before handing them back")
		compress = flag.Bool("wire-compress", true, "request Snappy compression on shuffle fetches (output is identical; only bytes on the wire change)")
	)
	flag.Parse()
	if *coord == "" {
		fmt.Fprintln(os.Stderr, "antwork: -coordinator is required")
		flag.Usage()
		os.Exit(2)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drain := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "antwork: draining (signal again to exit immediately)")
		close(drain)
		<-sigs
		cancel()
	}()

	err := cluster.RunWorker(ctx, cluster.WorkerOptions{
		Coordinator:     *coord,
		Slots:           *slots,
		DataAddr:        *data,
		Drain:           drain,
		DrainTimeout:    *drainTO,
		WireCompression: *compress,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "antwork:", err)
		os.Exit(1)
	}
}
