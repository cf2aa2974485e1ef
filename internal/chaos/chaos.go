// Package chaos is the deterministic fault-injection plane: one seeded
// Schedule decides every injected fault across three layers — the task
// filesystem (failed/short/torn/delayed reads and writes, via WrapFS),
// the shuffle data plane (dropped/stalled/truncated/bit-flipped segment
// serving, via WrapListener), and the process level (worker crashes and
// stragglers, via PlanWorker). Fault placement is a pure function of
// (seed, layer, fault kind, per-kind operation sequence number), so
// replaying the same seed against the same job reproduces the same
// fault pattern relative to each layer's operation counts — no global
// RNG, no time dependence — and a failing soak seed is a reproducible
// bug report. Every injected fault is recorded as an event and,
// when a tracer is attached, as a zero-length obs span of kind
// "chaos", so a failing run's schedule is reconstructable from its
// trace alone.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Profile sets per-operation fault probabilities and shapes for one
// chaos schedule. Zero fields inject nothing, so a zero Profile is a
// no-op and presets enable only their layer.
type Profile struct {
	// Name identifies the profile in logs and flags.
	Name string

	// Filesystem layer: probability per byte-level operation.
	ReadFail   float64 // read op returns an injected error
	WriteFail  float64 // write op returns an injected error
	ShortRead  float64 // read op returns fewer bytes than asked
	TornWrite  float64 // write op persists a prefix, then fails
	ReadDelay  float64 // read op sleeps fsDelay first
	WriteDelay float64 // write op sleeps fsDelay first

	// Shuffle data plane: ConnDrop is per accepted connection; the rest
	// are per payload write (>= corruptThreshold bytes, so the wire
	// protocol's small header frames are never hit — corruption lands on
	// segment payload, which exactly the checksum layer must catch).
	ConnDrop float64 // accepted connection is closed immediately
	Stall    float64 // payload write sleeps stallFor first
	Truncate float64 // payload write sends a prefix, then closes the conn
	BitFlip  float64 // payload write flips one bit and succeeds

	// Process layer: probability per worker.
	CrashWorker float64 // worker's context is cancelled mid-job
	Straggle    float64 // worker's filesystem gets a per-op delay

	// MaxFaults caps injected faults per layer (default 6), so a
	// chaotic run stays within the job's retry budget; a layer's
	// decisions after its budget is spent are always "no fault". The
	// cap is per layer, not global: filesystem operations outnumber
	// data-plane writes by orders of magnitude, and a shared budget
	// would be gone before the first segment ever crossed a socket.
	MaxFaults int
}

const (
	defaultMaxFaults = 6
	fsDelay          = time.Millisecond     // filesystem delay
	stallFor         = 5 * time.Millisecond // data-plane stall

	// corruptThreshold gates data-plane payload faults: only writes at
	// least this large are eligible, which skips the protocol's uvarint
	// header frames (<= 10 bytes) and error frames.
	corruptThreshold = 1024

	// maxEvents caps the per-schedule event log.
	maxEvents = 256
)

// Mixed exercises every layer at modest rates — the default soak diet.
func Mixed() Profile {
	return Profile{
		Name:     "mixed",
		ReadFail: 0.002, WriteFail: 0.002, ShortRead: 0.01, TornWrite: 0.001,
		ReadDelay: 0.002, WriteDelay: 0.002,
		ConnDrop: 0.10, Stall: 0.03, Truncate: 0.03, BitFlip: 0.03,
		CrashWorker: 0.25, Straggle: 0.25,
	}
}

// Disk injects only filesystem faults.
func Disk() Profile {
	return Profile{
		Name:     "disk",
		ReadFail: 0.004, WriteFail: 0.004, ShortRead: 0.02, TornWrite: 0.002,
		ReadDelay: 0.004, WriteDelay: 0.004,
	}
}

// Net injects only data-plane faults.
func Net() Profile {
	return Profile{
		Name:     "net",
		ConnDrop: 0.15, Stall: 0.05, Truncate: 0.06, BitFlip: 0.06,
	}
}

// Crash injects only process-level faults.
func Crash() Profile {
	return Profile{Name: "crash", CrashWorker: 0.5, Straggle: 0.5}
}

// ProfileByName resolves a preset by its Name, for flags.
func ProfileByName(name string) (Profile, error) {
	for _, p := range []Profile{Mixed(), Disk(), Net(), Crash()} {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("chaos: unknown profile %q (have mixed, disk, net, crash)", name)
}

func (p Profile) normalized() Profile {
	if p.MaxFaults <= 0 {
		p.MaxFaults = defaultMaxFaults
	}
	return p
}

// Event is one injected fault: which layer and fault kind, and the
// per-kind operation sequence number it fired at.
type Event struct {
	Layer string // "fs", "net", or "proc"
	Kind  string // e.g. "readFail", "bitFlip", "crash"
	Seq   uint64 // per-(layer,kind) operation counter at injection
}

func (e Event) String() string { return fmt.Sprintf("%s/%s@%d", e.Layer, e.Kind, e.Seq) }

// WorkerPlan is the process-layer fault assignment for one worker.
type WorkerPlan struct {
	// Crash: cancel the worker's context CrashAfter into the job. The
	// cluster must finish correctly without it.
	Crash      bool
	CrashAfter time.Duration
	// SlowEvery: when > 0, the worker is a straggler — every filesystem
	// operation sleeps fsDelay (apply via WrapFSDelayed).
	SlowEvery time.Duration
}

// Schedule is one seeded, deterministic fault plan. It is safe for
// concurrent use; wrap the layers you want faulted and run the job.
type Schedule struct {
	seed   uint64
	prof   Profile
	tracer *obs.Tracer

	mu          sync.Mutex
	seq         map[string]uint64
	layerFaults map[string]int
	counts      map[string]int
	events      []Event
}

// New builds a schedule for seed under prof.
func New(seed uint64, prof Profile) *Schedule {
	return &Schedule{
		seed:        seed,
		prof:        prof.normalized(),
		seq:         make(map[string]uint64),
		layerFaults: make(map[string]int),
		counts:      make(map[string]int),
	}
}

// SetTracer attaches a tracer; each injected fault is recorded as a
// zero-length span of kind obs.KindChaos named "layer/kind".
func (s *Schedule) SetTracer(t *obs.Tracer) { s.tracer = t }

// Seed reports the schedule's seed.
func (s *Schedule) Seed() uint64 { return s.seed }

// Profile reports the schedule's (normalized) profile.
func (s *Schedule) Profile() Profile { return s.prof }

// decide is the single fault oracle: the prob-weighted decision for the
// next operation of (layer, kind) is a pure function of the seed, the
// layer/kind name, and that pair's operation counter. A "yes" consumes
// one unit of the fault budget; once the budget is spent every answer
// is "no", so chaos cannot outlast the job's retry allowance.
func (s *Schedule) decide(layer, kind string, prob float64) bool {
	if prob <= 0 {
		return false
	}
	key := layer + "/" + kind
	s.mu.Lock()
	n := s.seq[key]
	s.seq[key] = n + 1
	if s.layerFaults[layer] >= s.prof.MaxFaults {
		s.mu.Unlock()
		return false
	}
	h := splitmix64(s.seed ^ splitmix64(hashString(key)^(n+1)*0x9E3779B97F4A7C15))
	if float64(h>>11)/(1<<53) >= prob {
		s.mu.Unlock()
		return false
	}
	s.layerFaults[layer]++
	s.counts[key]++
	if len(s.events) < maxEvents {
		s.events = append(s.events, Event{Layer: layer, Kind: kind, Seq: n})
	}
	tracer := s.tracer
	s.mu.Unlock()
	if tracer != nil {
		now := time.Now()
		tracer.Record(obs.KindChaos, key, now, now,
			obs.Str("layer", layer), obs.Str("kind", kind), obs.Int("seq", int64(n)))
	}
	return true
}

// PlanWorker assigns process-layer faults to worker i. Deterministic in
// (seed, i) and does not consume per-op sequence state, so calling it
// in any order yields the same plans.
func (s *Schedule) PlanWorker(i int) WorkerPlan {
	var plan WorkerPlan
	base := splitmix64(s.seed ^ splitmix64(hashString("proc")^uint64(i+1)*0x9E3779B97F4A7C15))
	if probOf(base) < s.prof.CrashWorker {
		plan.Crash = true
		// 25–100ms in, derived from the same hash: early enough to catch
		// in-flight work, late enough that the worker has registered.
		plan.CrashAfter = 25*time.Millisecond + time.Duration(base%4)*25*time.Millisecond
		s.note("proc", "crash", uint64(i))
	} else if probOf(splitmix64(base)) < s.prof.Straggle {
		plan.SlowEvery = fsDelay
		s.note("proc", "straggle", uint64(i))
	}
	return plan
}

// note records a fault decided outside the per-op oracle (process-layer
// plans), keeping the event log and counts complete.
func (s *Schedule) note(layer, kind string, seq uint64) {
	key := layer + "/" + kind
	s.mu.Lock()
	s.layerFaults[layer]++
	s.counts[key]++
	if len(s.events) < maxEvents {
		s.events = append(s.events, Event{Layer: layer, Kind: kind, Seq: seq})
	}
	tracer := s.tracer
	s.mu.Unlock()
	if tracer != nil {
		now := time.Now()
		tracer.Record(obs.KindChaos, key, now, now,
			obs.Str("layer", layer), obs.Str("kind", kind), obs.Int("seq", int64(seq)))
	}
}

// InjectedFaults reports how many faults fired so far, over all layers.
func (s *Schedule) InjectedFaults() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, n := range s.layerFaults {
		total += n
	}
	return total
}

// Counts returns a copy of the per-(layer/kind) fault counts.
func (s *Schedule) Counts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Events returns a copy of the injected-fault log (capped at 256).
func (s *Schedule) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Describe renders the schedule for failure reports: the seed, the
// profile, and every fault injected so far — everything needed to file
// or replay a failing run.
func (s *Schedule) Describe() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, n := range s.layerFaults {
		total += n
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d profile=%s faults=%d", s.seed, s.prof.Name, total)
	keys := make([]string, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, s.counts[k])
	}
	if len(s.events) > 0 {
		b.WriteString(" events=[")
		for i, e := range s.events {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(e.String())
		}
		b.WriteByte(']')
	}
	return b.String()
}

// probOf maps a hash to [0, 1).
func probOf(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mixer,
// the standard seed-expansion primitive.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hashString is 64-bit FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
