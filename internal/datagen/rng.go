// Package datagen produces the deterministic synthetic datasets standing
// in for the paper's inputs: a Zipfian search-query log (QLog), random
// text (RandomText), a power-law web graph (ClueWeb09), and ship/station
// cloud reports (Cloud). Every generator is a pure function of its seed,
// which also keeps LazySH's determinism requirement easy to satisfy when
// inputs are regenerated.
package datagen

// RNG is a SplitMix64 pseudo-random generator: tiny, fast, and with a
// fixed algorithm so generated datasets never change across Go releases.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("datagen: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Fork derives an independent stream, so record i can be generated
// without generating records 0..i-1.
func (r *RNG) Fork(stream uint64) *RNG {
	return NewRNG(r.Uint64() ^ (stream * 0xd6e8feb86659fd93))
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 mixes a byte string into 64 bits (FNV-1a finished with a
// SplitMix64 scramble). Workloads use it to derive deterministic
// "random" choices from record content, which keeps Map deterministic
// as LazySH requires.
func Hash64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return scramble(h)
}

// Hash64Tagged2 is Hash64(tagA + b) and Hash64(tagB + b), computed in
// one pass over b without building either concatenation: two
// independent FNV-1a lanes, whose multiplies overlap.
func Hash64Tagged2(tagA, tagB string, b []byte) (uint64, uint64) {
	ha, hb := fnvString(tagA), fnvString(tagB)
	for _, c := range b {
		ha ^= uint64(c)
		hb ^= uint64(c)
		ha *= fnvPrime64
		hb *= fnvPrime64
	}
	return scramble(ha), scramble(hb)
}

// fnvString is the FNV-1a state after s.
func fnvString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// scramble is Hash64's SplitMix64 finish.
func scramble(h uint64) uint64 {
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}
