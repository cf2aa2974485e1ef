// Package cluster is the multi-process MapReduce runtime: a Fleet owns
// one pool of worker processes and runs many jobs over it concurrently.
// Workers register once, heartbeat, long-poll for task leases, execute
// map/fetch/reduce attempts against the internal/mr task code, and
// serve their files through mr.SegmentServer: map-output segments to
// peers, reduce output to the fleet, which pulls it over that same data
// plane before it commits the reduce.
// Each job keeps its own task graph, placement, and stats (a jobRun
// whose tasks' Run closures lease attempts to workers, so
// internal/sched's retries, backoff, and DepLostError re-execution all
// apply per job), while
// the fleet arbitrates task leases across jobs with per-tenant
// weighted fair share. Worker death is recovered the way Hadoop
// re-runs completed maps when a tasktracker is lost; workers can also
// leave gracefully (drain: finish in-flight attempts, deregister) and
// join at any time, so the fleet resizes under load.
//
// The MapReduce task graph itself — task names, dependencies, each
// partition's sources, what a fetch task does — is internal/mr's
// (mr.Plan, mr.ExecMapTask/ExecFetchTask/ExecReduceTask); this package
// adds only what being distributed needs: leases, partition homes,
// liveness, and assembling a Result from reports. A one-shot caller
// writes NewFleet → WaitWorkers → Submit(JobSpec{Exclusive: true}) →
// Wait → Shutdown.
package cluster

import (
	"time"

	"repro/internal/mr"
)

// JobRef names a registry-registered job plus its opaque build spec;
// both coordinator and workers rebuild the identical job (and splits)
// from it, so leases never ship closures or input data.
type JobRef struct {
	Name string
	Spec []byte
}

// AttemptID identifies one attempt of one task of one job.
type AttemptID struct {
	Job     int
	Task    string
	Attempt int
}

// RegisterArgs / RegisterReply: a worker joins the fleet. Job specs are
// not part of registration any more — leases carry a JobID and workers
// fetch (and cache) each job's build reference on first contact, so one
// registration serves many jobs over the worker's lifetime.
type RegisterArgs struct {
	DataAddr string // the worker's segment-server address
	Slots    int    // concurrent task slots offered
}

type RegisterReply struct {
	WorkerID       int
	HeartbeatEvery time.Duration
}

// GetJobArgs / GetJobReply: a worker resolves a lease's JobID into the
// job's registry reference and per-job execution knobs.
type GetJobArgs struct {
	JobID int
}

type GetJobReply struct {
	Ref JobRef
	// MaxTaskAttempts shapes task behavior (reduce merges keep their
	// inputs when retries are possible); workers mirror the job's.
	MaxTaskAttempts int
}

// HeartbeatArgs / HeartbeatReply: liveness plus the fleet's worker-bound
// back-channels — attempt cancellations (revoked leases, cancelled
// jobs), finished-job cleanup announcements, and
// fleet-initiated drain requests all piggyback on heartbeat replies.
type HeartbeatArgs struct {
	WorkerID int
}

type HeartbeatReply struct {
	// Shutdown tells the worker to exit (fleet closed, or the fleet
	// declared it dead and a revival would corrupt placement).
	Shutdown bool
	// Drain asks the worker to drain gracefully: stop taking leases,
	// finish (or hand back) what it is running, deregister, exit.
	Drain  bool
	Cancel []AttemptID
	// Cleanup lists job IDs that finished: the worker may delete every
	// local file in those jobs' workspaces and drop its cached builds.
	Cleanup []int
}

// LeaseArgs / LeaseReply: workers long-poll for task leases.
type LeaseArgs struct {
	WorkerID int
}

type LeaseReply struct {
	Shutdown bool
	// Drain mirrors HeartbeatReply.Drain so a draining worker parked in
	// a lease long-poll learns immediately instead of on its next beat.
	Drain   bool
	Idle    bool // poll timed out; ask again
	Granted bool
	Lease   TaskLease
}

// StageInput is one map task's input when a job runs as a pipeline
// stage: either inline records shipped from the driver (a pipeline's
// initial input) or a handoff — a previous stage job's reduce output,
// retained as a framed record file in that job's workspace on the
// worker that reduced it. Handoff inputs are leased to the holding
// worker when it is alive, so stage-to-stage data never moves; a
// draining holder's file is fetched over the segment server instead.
type StageInput struct {
	Records []mr.Record
	Handoff *mr.SegmentInfo
	// Worker is the handoff holder's worker id (for liveness checks and
	// placement pinning).
	Worker int
}

// TaskLease is one task attempt of one job assigned to a worker.
type TaskLease struct {
	JobID   int
	Task    string
	Group   string // mr.TaskGroupMap / Fetch / Reduce
	Attempt int

	// Map leases: the split index. Workers rebuild splits from the job
	// registry, so only the index travels — except for pipeline stage
	// jobs, whose Input carries the stage's real input (inline records
	// or a handoff reference) instead.
	MapTask int
	Input   *StageInput

	// Fetch leases: pull Sources (segments on peer workers) to local
	// files. MapIndex is the producing map task, for stable local names.
	Partition int
	MapIndex  int
	Sources   []mr.SegmentInfo

	// Reduce leases: merge Locals, which the fleet placed on this
	// worker via earlier fetch leases. LocalTasks names the fetch task
	// that produced each Locals entry, so a missing file can be reported
	// as that task's lost output.
	Locals     []mr.SegmentInfo
	LocalTasks []string
}

// ReportArgs delivers an attempt's outcome back to the fleet. It names
// the files a task wrote and never carries their data, so no report
// grows with a task's output and heartbeats never queue behind one.
type ReportArgs struct {
	WorkerID int
	JobID    int
	Task     string
	Attempt  int

	// Failure: Errmsg is non-empty; Transient marks errors worth
	// retrying; LostDeps names tasks whose committed output this worker
	// found missing; Unreachable lists segment-server addresses that
	// could not be fetched from (evidence toward declaring a peer dead).
	Errmsg      string
	Transient   bool
	LostDeps    []string
	Unreachable []string

	// Success payloads by task group.
	Segs      []mr.SegmentInfo // map: produced segments; fetch: localized segments
	FlowBytes int64            // fetch: payload bytes moved over the wire
	FetchNs   int64            // fetch: time spent in transfers
	Fetches   int              // fetch: segment transfers performed
	// Handoff is a reduce's output: a record file in the job's workspace
	// on this worker, served by its segment server.
	Handoff *mr.SegmentInfo

	// Stats is the attempt's counter snapshot (fresh counters per
	// attempt, so deltas sum cleanly across committed attempts).
	Stats mr.Stats
	DurNs int64

	// Cumulative per-worker gauges, reported on every report so the
	// fleet's last observation is current: connection-pool dials,
	// control-plane RPC retries spent by this worker, and fetches that
	// failed checksum verification. The last two ride as gauges, not
	// attempt stats, because the attempts that produce them fail — and
	// failed attempts' stats are (rightly) discarded. Gauges are
	// fleet-wide (a worker serves many jobs), so only an Exclusive job
	// folds them into its Result.
	PoolDials       int64
	RPCRetries      int64
	IntegrityFaults int64
}

type ReportReply struct{}

// DrainArgs / DrainReply: a worker announces it is draining (SIGTERM):
// the fleet stops granting it leases and re-places anything still
// queued for it. The worker finishes or hands back running attempts,
// then calls Deregister.
type DrainArgs struct {
	WorkerID int
}

type DrainReply struct{}

// DeregisterArgs / DeregisterReply: a drained worker leaves the fleet.
// Map output it served dies with it; jobs that still need those
// segments recover through the existing DepLostError re-execution path.
type DeregisterArgs struct {
	WorkerID int
}

type DeregisterReply struct{}
