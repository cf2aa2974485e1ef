// Package costmodel converts a job's measured resource totals — CPU
// time, disk bytes, shuffle bytes — into an estimated runtime on a
// parametric cluster. The paper ran on real hardware (11 workers, 4
// cores each, two SATA disks, one shared gigabit switch); this
// reproduction runs in one process, so runtime comparisons are
// regenerated through a bottleneck model: each resource's busy time is
// computed for the cluster, the network time via the netsim fair-share
// simulation, and the estimated runtime is the maximum of the three
// (MapReduce pipelines CPU, disk, and shuffle against each other, so
// the slowest resource dominates a well-tuned job).
package costmodel

import (
	"fmt"
	"time"

	"repro/internal/mr"
	"repro/internal/netsim"
	"repro/internal/sched"
)

// Cluster describes the modeled hardware.
type Cluster struct {
	// Workers is the worker machine count.
	Workers int
	// CoresPerWorker is each worker's core count.
	CoresPerWorker int
	// DiskBps is each worker's aggregate disk bandwidth (bytes/second).
	DiskBps float64
	// Net is the shuffle fabric.
	Net netsim.Network
}

// Paper returns the paper's testbed: 11 workers × 4 cores, two 7.2K
// SATA disks (~2×80 MB/s), one shared gigabit switch.
func Paper() Cluster {
	return Cluster{
		Workers:        11,
		CoresPerWorker: 4,
		DiskBps:        160e6,
		Net:            netsim.Gigabit(11),
	}
}

// Estimate is the per-resource breakdown of a job's modeled runtime.
type Estimate struct {
	// CPUTime is total task CPU divided over the cluster's cores.
	CPUTime time.Duration
	// DiskTime is total disk bytes divided over the workers' disks.
	DiskTime time.Duration
	// NetTime is the shuffle makespan from the fair-share simulation.
	NetTime time.Duration
	// Runtime is the bottleneck estimate: max of the three.
	Runtime time.Duration
}

// String renders the estimate for logs and tables.
func (e Estimate) String() string {
	return fmt.Sprintf("runtime≈%v (cpu=%v disk=%v net=%v)",
		e.Runtime.Round(time.Millisecond), e.CPUTime.Round(time.Millisecond),
		e.DiskTime.Round(time.Millisecond), e.NetTime.Round(time.Millisecond))
}

// Estimate models a finished job on the cluster. shufflePerPartition is
// each reduce partition's fetched bytes (mr.Result.ShufflePerPartition).
func (c Cluster) Estimate(stats mr.Stats, shufflePerPartition []int64) (Estimate, error) {
	var e Estimate
	cores := c.Workers * c.CoresPerWorker
	if cores <= 0 {
		return e, fmt.Errorf("costmodel: cluster has no cores")
	}
	e.CPUTime = stats.TotalCPU() / time.Duration(cores)

	diskBytes := float64(stats.DiskReadBytes + stats.DiskWriteBytes)
	e.DiskTime = time.Duration(diskBytes / (c.DiskBps * float64(c.Workers)) * float64(time.Second))

	net, err := c.Net.Makespan(c.Net.ShuffleFlows(shufflePerPartition))
	if err != nil {
		return e, err
	}
	e.NetTime = net

	e.Runtime = max(e.CPUTime, max(e.DiskTime, e.NetTime))
	return e, nil
}

// PartitionSkew summarizes per-partition flow bytes as max, mean, and
// max/mean — the balance figure the skew-aware partitioning layer
// (internal/partition) optimizes. Feed it either the predicted
// Stats.MapOutputPerPartition or the measured
// Result.ShufflePerPartition; on the shared-fabric netsim the shuffle
// makespan tracks the max flow, so the ratio is also the network-time
// penalty of imbalance.
func PartitionSkew(flows []int64) (maxBytes, meanBytes int64, ratio float64) {
	if len(flows) == 0 {
		return 0, 0, 0
	}
	var sum int64
	for _, f := range flows {
		if f > maxBytes {
			maxBytes = f
		}
		sum += f
	}
	meanBytes = sum / int64(len(flows))
	if meanBytes > 0 {
		ratio = float64(maxBytes) / float64(meanBytes)
	}
	return maxBytes, meanBytes, ratio
}

// ObservedOverlap measures, from a finished job's event timeline
// (mr.Result.Timeline), how long shuffle fetches actually ran
// concurrently with still-executing map tasks. The bottleneck model
// above *assumes* CPU, disk, and network pipeline against each other;
// under the pipelined scheduler this turns that assumption into a
// measurement — a zero overlap (as the barrier engine produces) means
// the shuffle phase serialized behind the map phase and the max() in
// Estimate is optimistic by up to NetTime.
func ObservedOverlap(timeline []sched.Attempt) time.Duration {
	return sched.Overlap(timeline, mr.TaskGroupMap, mr.TaskGroupFetch)
}
