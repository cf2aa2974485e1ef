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
// inputs: associativity and identity of Merge, commutativity when the
// Commutative marker is claimed, that absorbing a value is merging its
// singleton state (what the fold table's AbsorbShared relies on), that
// Merge leaves its second argument as it was, and closure (Emit output
// absorbs back into an equivalent state — the property that makes the
// derived combiner safe to reapply). States are compared through their
// canonical encoding (EmitRecords). When m is a Sizer, every state the
// check encodes, merged and re-absorbed ones included, must also Size to
// the value bytes Emit writes for it. Returns the first violation found.
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
	_, isCommutative := m.(Commutative[S])
	sizer, _ := m.(Sizer[S])

	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		k := key(r)
		batches := [3][][]byte{cfg.Values(r), cfg.Values(r), cfg.Values(r)}
		// States are rebuilt from their batches before every Merge:
		// Merge may mutate its arguments, so no state is reused across
		// law evaluations.
		build := func(i int) (S, error) {
			s := m.Identity()
			var err error
			for _, v := range batches[i] {
				if s, err = m.Absorb(s, v); err != nil {
					return s, fmt.Errorf("monoid: Absorb failed (trial %d): %w", trial, err)
				}
			}
			return s, nil
		}
		emit := func(s S) ([]mr.Record, error) {
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
		if sizer != nil {
			if _, err := emit(m.Identity()); err != nil {
				return err
			}
		}
		merge2 := func(i, j int) (S, error) {
			a, err := build(i)
			if err != nil {
				return a, err
			}
			b, err := build(j)
			if err != nil {
				return b, err
			}
			s, err := m.Merge(a, b)
			if err != nil {
				return s, fmt.Errorf("monoid: Merge failed (trial %d): %w", trial, err)
			}
			return s, nil
		}

		// Associativity: (a·b)·c == a·(b·c).
		left, err := merge2(0, 1)
		if err != nil {
			return err
		}
		c, err := build(2)
		if err != nil {
			return err
		}
		if left, err = m.Merge(left, c); err != nil {
			return fmt.Errorf("monoid: Merge failed (trial %d): %w", trial, err)
		}
		right, err := merge2(1, 2)
		if err != nil {
			return err
		}
		a, err := build(0)
		if err != nil {
			return err
		}
		if right, err = m.Merge(a, right); err != nil {
			return fmt.Errorf("monoid: Merge failed (trial %d): %w", trial, err)
		}
		lrecs, err := emit(left)
		if err != nil {
			return err
		}
		rrecs, err := emit(right)
		if err != nil {
			return err
		}
		if !equal(lrecs, rrecs) {
			return fmt.Errorf("monoid: associativity violated (trial %d, seed %d):\n (a·b)·c = %s\n a·(b·c) = %s",
				trial, seed, formatRecords(lrecs), formatRecords(rrecs))
		}

		// Identity: e·a == a == a·e.
		base, err := build(0)
		if err != nil {
			return err
		}
		baseRecs, err := emit(base)
		if err != nil {
			return err
		}
		for _, side := range []string{"left", "right"} {
			s, err := build(0)
			if err != nil {
				return err
			}
			var merged S
			if side == "left" {
				merged, err = m.Merge(m.Identity(), s)
			} else {
				merged, err = m.Merge(s, m.Identity())
			}
			if err != nil {
				return fmt.Errorf("monoid: Merge with identity failed (trial %d): %w", trial, err)
			}
			got, err := emit(merged)
			if err != nil {
				return err
			}
			if !equal(got, baseRecs) {
				return fmt.Errorf("monoid: %s identity violated (trial %d, seed %d):\n e·a = %s\n   a = %s",
					side, trial, seed, formatRecords(got), formatRecords(baseRecs))
			}
		}

		// Claimed commutativity: a·b == b·a.
		if isCommutative {
			ab, err := merge2(0, 1)
			if err != nil {
				return err
			}
			ba, err := merge2(1, 0)
			if err != nil {
				return err
			}
			abRecs, err := emit(ab)
			if err != nil {
				return err
			}
			baRecs, err := emit(ba)
			if err != nil {
				return err
			}
			if !equal(abRecs, baRecs) {
				return fmt.Errorf("monoid: claimed commutativity violated (trial %d, seed %d):\n a·b = %s\n b·a = %s",
					trial, seed, formatRecords(abRecs), formatRecords(baRecs))
			}
		}

		// Absorbing is merging the singleton state, and Merge leaves its
		// second argument as it was: the fold table absorbs an EagerSH
		// value once and merges that one state into every key sharing it.
		merged, err := build(1)
		if err != nil {
			return err
		}
		for _, v := range batches[0] {
			one, err := m.Absorb(m.Identity(), v)
			if err != nil {
				return fmt.Errorf("monoid: Absorb failed (trial %d): %w", trial, err)
			}
			before, err := emit(one)
			if err != nil {
				return err
			}
			if merged, err = m.Merge(merged, one); err != nil {
				return fmt.Errorf("monoid: Merge failed (trial %d): %w", trial, err)
			}
			after, err := emit(one)
			if err != nil {
				return err
			}
			if !equal(after, before) {
				return fmt.Errorf("monoid: Merge mutated its second argument (trial %d, seed %d):\n before = %s\n  after = %s",
					trial, seed, formatRecords(before), formatRecords(after))
			}
		}
		absorbed, err := build(1)
		if err != nil {
			return err
		}
		for _, v := range batches[0] {
			if absorbed, err = m.Absorb(absorbed, v); err != nil {
				return fmt.Errorf("monoid: Absorb failed (trial %d): %w", trial, err)
			}
		}
		arecs, err := emit(absorbed)
		if err != nil {
			return err
		}
		mrecs, err := emit(merged)
		if err != nil {
			return err
		}
		if !equal(arecs, mrecs) {
			return fmt.Errorf("monoid: Absorb is not Merge of the singleton state (trial %d, seed %d):\n absorb = %s\n  merge = %s",
				trial, seed, formatRecords(arecs), formatRecords(mrecs))
		}

		// Closure: re-absorbing the emitted encoding reproduces the
		// state. This is what lets combiner output feed later combiner
		// passes.
		s := m.Identity()
		for _, rec := range baseRecs {
			if s, err = m.Absorb(s, rec.Value); err != nil {
				return fmt.Errorf("monoid: closure violated — Absorb rejected Emit output (trial %d, seed %d): %w", trial, seed, err)
			}
		}
		round, err := emit(s)
		if err != nil {
			return err
		}
		if !equal(round, baseRecs) {
			return fmt.Errorf("monoid: closure violated — emit∘absorb∘emit not idempotent (trial %d, seed %d):\n round = %s\n  base = %s",
				trial, seed, formatRecords(round), formatRecords(baseRecs))
		}
	}
	return nil
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
