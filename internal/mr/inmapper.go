package mr

import "repro/internal/bytesx"

// InMapperCombining wraps a Mapper factory with the in-mapper combining
// design pattern (Lin & Dyer, referenced in the paper's §1): emissions
// are folded into a bounded in-memory table keyed by output key, and the
// table is flushed when it reaches maxEntries and at task cleanup. Like
// a Combiner, it only helps when many Map output records in the same
// task share a key — the limitation Anti-Combining was designed around —
// and it composes with Anti-Combining (flushed records are encoded like
// any other emission).
//
// combine must be associative: combine(combine(a,b),c) == combine(a,
// combine(b,c)). The mapper must emit values already in combinable form
// (e.g. counts, not raw tokens).
func InMapperCombining(newMapper func() Mapper, combine func(acc, v []byte) []byte, maxEntries int) func() Mapper {
	if maxEntries <= 0 {
		maxEntries = 64 << 10
	}
	return func() Mapper {
		return &inMapperCombiner{
			inner:      newMapper(),
			combine:    combine,
			maxEntries: maxEntries,
			table:      make(map[string][]byte),
		}
	}
}

type inMapperCombiner struct {
	inner      Mapper
	combine    func(acc, v []byte) []byte
	maxEntries int
	table      map[string][]byte
}

// Setup implements Mapper.
func (m *inMapperCombiner) Setup(info *TaskInfo, out Emitter) error {
	return m.inner.Setup(info, m.wrap(out))
}

// Map implements Mapper.
func (m *inMapperCombiner) Map(key, value []byte, out Emitter) error {
	wrapped := m.wrap(out)
	if err := m.inner.Map(key, value, wrapped); err != nil {
		return err
	}
	if len(m.table) >= m.maxEntries {
		return m.flush(out)
	}
	return nil
}

// Cleanup implements Mapper: run the inner cleanup, whose emissions are
// folded too, then flush the table.
func (m *inMapperCombiner) Cleanup(out Emitter) error {
	if err := m.inner.Cleanup(m.wrap(out)); err != nil {
		return err
	}
	return m.flush(out)
}

func (m *inMapperCombiner) wrap(out Emitter) Emitter {
	return EmitterFunc(func(k, v []byte) error {
		if acc, ok := m.table[string(k)]; ok {
			m.table[string(k)] = m.combine(acc, v)
			return nil
		}
		m.table[string(k)] = bytesx.Clone(v)
		return nil
	})
}

func (m *inMapperCombiner) flush(out Emitter) error {
	for k, v := range m.table {
		if err := out.Emit([]byte(k), v); err != nil {
			return err
		}
	}
	clear(m.table)
	return nil
}
