package monoid

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/mr"
)

// LawConfig drives CheckLaws. Values is the only required field: it
// generates one batch of encoded values (as the workload's map phase
// would emit them) from the seeded source.
type LawConfig struct {
	// Seed seeds the deterministic generator (0 = seed 1).
	Seed int64
	// Trials is the number of random trials (0 = 64).
	Trials int
	// Key generates the group key for a trial. Nil = fixed key "k".
	Key func(r *rand.Rand) []byte
	// Values generates a non-empty batch of encoded values for one key.
	Values func(r *rand.Rand) [][]byte
	// Equal compares two emitted encodings. Nil = exact byte equality.
	// Float-valued monoids substitute an epsilon comparison here, since
	// reassociating float sums legitimately perturbs low bits.
	Equal func(a, b []mr.Record) bool
}

// CheckLaws property-tests a monoid declaration under seeded random
// inputs, with the laws stated over what the engine does: it absorbs
// raw values, and the values Emit wrote for a partial state. Per trial
// it checks partial aggregation (absorbing batch A and then the Emit of
// batch B's state equals absorbing A and then B), identity (absorbing
// the Emit of the Identity state, before or after A, changes nothing),
// commutativity (A then B equals B then A), and closure (Emit output
// absorbs back into an equivalent state — the property that makes the
// derived combiner safe to reapply). States are compared through their canonical encoding
// (EmitRecords). When m is a Sizer, every state the check encodes must
// also Size to the value bytes Emit writes for it. Returns the first
// violation found.
func CheckLaws[S any](m Monoid[S], cfg LawConfig) error {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	trials := cfg.Trials
	if trials <= 0 {
		trials = 64
	}
	if cfg.Values == nil {
		return fmt.Errorf("monoid: LawConfig.Values is required")
	}
	key := cfg.Key
	if key == nil {
		key = func(*rand.Rand) []byte { return []byte("k") }
	}
	equal := cfg.Equal
	if equal == nil {
		equal = RecordsEqual
	}
	sizer, _ := m.(Sizer[S])

	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		k := key(r)
		// fold absorbs the batches, in order, into a fresh state and
		// returns its encoding.
		fold := func(batches ...[][]byte) ([]mr.Record, error) {
			s := m.Identity()
			var err error
			for _, batch := range batches {
				for _, v := range batch {
					if s, err = m.Absorb(s, v); err != nil {
						return nil, fmt.Errorf("monoid: Absorb failed (trial %d): %w", trial, err)
					}
				}
			}
			recs, err := EmitRecords(m, k, s)
			if err != nil {
				return nil, fmt.Errorf("monoid: Emit failed (trial %d): %w", trial, err)
			}
			if sizer != nil {
				n := 0
				for _, rec := range recs {
					n += len(rec.Value)
				}
				if size := sizer.Size(s); size != n {
					return nil, fmt.Errorf("monoid: Size law violated (trial %d, seed %d): Size = %d, Emit wrote %d value bytes: %s",
						trial, seed, size, n, formatRecords(recs))
				}
			}
			return recs, nil
		}
		// law folds the two sides' batches and compares what they encode.
		law := func(name, lhs, rhs string, left, right [][][]byte) error {
			l, err := fold(left...)
			if err != nil {
				return err
			}
			rr, err := fold(right...)
			if err != nil {
				return err
			}
			if !equal(l, rr) {
				return fmt.Errorf("monoid: %s violated (trial %d, seed %d):\n %s = %s\n %s = %s",
					name, trial, seed, lhs, formatRecords(l), rhs, formatRecords(rr))
			}
			return nil
		}
		a, b := cfg.Values(r), cfg.Values(r)
		base, err := fold(a)
		if err != nil {
			return err
		}
		partialB, err := fold(b)
		if err != nil {
			return err
		}
		empty, err := fold()
		if err != nil {
			return err
		}

		// Partial aggregation: a combiner's output stands in for the
		// values it aggregated.
		if err := law("partial aggregation", "A, Emit(B)", "A, B", [][][]byte{a, values(partialB)}, [][][]byte{a, b}); err != nil {
			return err
		}
		// Identity: the empty state's encoding absorbs as nothing.
		if err := law("left identity", "Emit(e), A", "A", [][][]byte{values(empty), a}, [][][]byte{a}); err != nil {
			return err
		}
		if err := law("right identity", "A, Emit(e)", "A", [][][]byte{a, values(empty)}, [][][]byte{a}); err != nil {
			return err
		}
		// Commutativity: arrival order does not matter.
		if err := law("commutativity", "A, B", "B, A", [][][]byte{a, b}, [][][]byte{b, a}); err != nil {
			return err
		}
		// Closure: re-absorbing the emitted encoding reproduces the
		// state. This is what lets combiner output feed later combiner
		// passes.
		round, err := fold(values(base))
		if err != nil {
			return fmt.Errorf("monoid: closure violated — Absorb rejected Emit output (trial %d, seed %d): %w", trial, seed, err)
		}
		if !equal(round, base) {
			return fmt.Errorf("monoid: closure violated — emit∘absorb∘emit not idempotent (trial %d, seed %d):\n round = %s\n  base = %s",
				trial, seed, formatRecords(round), formatRecords(base))
		}
	}
	return nil
}

// values returns the values of recs.
func values(recs []mr.Record) [][]byte {
	vals := make([][]byte, len(recs))
	for i, rec := range recs {
		vals[i] = rec.Value
	}
	return vals
}

// RecordsEqual is the default state comparison: exact byte equality of
// the emitted records, order-sensitive (Emit must be deterministic).
func RecordsEqual(a, b []mr.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func formatRecords(recs []mr.Record) string {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, r := range recs {
		if i > 0 {
			buf.WriteByte(' ')
		}
		fmt.Fprintf(&buf, "%q=%q", r.Key, r.Value)
	}
	buf.WriteByte(']')
	return buf.String()
}
