package anticombine

import "time"

// Strategy selects which encodings the AntiMapper may use.
type Strategy int

const (
	// Adaptive picks per Map call and per partition whichever encoding
	// minimizes transferred bytes, subject to the cost threshold T
	// (the paper's AdaptiveSH).
	Adaptive Strategy = iota
	// EagerOnly disables LazySH — the paper's pure EagerSH runs, and
	// what threshold T = 0 means ("completely avoid any duplicate Map
	// and getPartition calls").
	EagerOnly
	// LazyOnly forces LazySH for every partition — the paper's pure
	// LazySH runs.
	LazyOnly
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Adaptive:
		return "adaptive"
	case EagerOnly:
		return "eager"
	case LazyOnly:
		return "lazy"
	}
	return "unknown"
}

// Options tunes the Anti-Combining transformation. The zero value is the
// paper's Adaptive-∞: free per-partition choice with no CPU threshold,
// map combiner off, Shared combine on when the job has a combiner.
type Options struct {
	// Strategy restricts the encodings considered.
	Strategy Strategy
	// T is the runtime cost threshold of §6.1: when
	// (mapCost + partitionCost) × touchedPartitions exceeds T, LazySH is
	// disabled for that Map call, bounding duplicated CPU on reducers.
	// T == 0 means unlimited (Adaptive-∞); use Strategy EagerOnly for the
	// paper's T = 0 (Adaptive-0).
	T time.Duration
	// MapCombiner is the paper's flag C: keep the (transformed) combiner
	// in the map phase. Off by default because an ineffective combiner
	// merely decodes — undoes — Anti-Combining (§6.2).
	MapCombiner bool
	// DisableSharedCombine turns off combine-on-insert in the Shared
	// structure even when the job has a combiner (§5 recommends it on).
	// It also turns off the fold paths, which combine without Shared:
	// the map-side fold of a declared combiner and the reduce-side fold
	// of a declared reducer. The reduce phase then combines nothing.
	DisableSharedCombine bool
	// SharedMemLimitBytes caps Shared's in-memory size before spilling.
	// Defaults to 1 MiB.
	SharedMemLimitBytes int
	// SharedMergeFactor caps Shared spill runs before merging.
	// Defaults to 10.
	SharedMergeFactor int
	// CrossCallWindow > 1 enables the paper's future-work extension
	// (§9): EagerSH sharing across up to this many consecutive Map
	// calls of the same task, so identical values from different input
	// records collapse too. Within a window LazySH is unavailable
	// (there is no single input record to re-execute), so windows
	// encode eagerly; 0 or 1 disables the window.
	CrossCallWindow int
	// UniformChoice makes one eager-vs-lazy decision per Map call
	// instead of per partition. §6.1 argues per-partition flexibility
	// enables greater data reduction; this flag exists for the ablation
	// benchmark that quantifies that argument.
	UniformChoice bool
}

// AdaptiveInf returns the Adaptive-∞ configuration.
func AdaptiveInf() Options { return Options{Strategy: Adaptive} }

// Adaptive0 returns the Adaptive-0 configuration (T = 0, EagerSH only).
func Adaptive0() Options { return Options{Strategy: EagerOnly} }

// AdaptiveAlpha returns the paper's Adaptive-α configuration with its
// 400 µs runtime threshold.
func AdaptiveAlpha() Options { return Options{Strategy: Adaptive, T: 400 * time.Microsecond} }
