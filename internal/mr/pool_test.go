package mr

import (
	"bytes"
	"testing"

	"repro/internal/bytesx"
)

// TestPutPoisonsRetainedViews keeps views of an arena, an entry slice
// and a copy buffer across their puts — the mistake poison-on-put
// exists to expose — and requires that they read poison afterwards,
// and that the poisoned buffers are still the ones handed out next.
// Every other test in this binary (and in the root package's) runs
// with the same hook on; this is the one that fails if it is removed.
func TestPutPoisonsRetainedViews(t *testing.T) {
	if !poisonOnPut {
		t.Fatal("poisonOnPut is off in a test binary")
	}
	bufs := newRunBuffers(1)

	arena := append(make([]byte, 0, 64), "a key the spill is done with"...)
	keptKey := arena[2:5]
	bufs.arenas.put(arena)
	if want := bytes.Repeat([]byte{bytesx.PoisonByte}, len(keptKey)); !bytes.Equal(keptKey, want) {
		t.Errorf("view kept across the arena put reads %q, want poison", keptKey)
	}
	if got := bufs.arenas.get(); cap(got) != 64 || len(got) != 0 || &got[:1][0] != &arena[0] {
		t.Errorf("get after the arena put returned len %d cap %d, want the recycled 64-byte arena", len(got), cap(got))
	}

	entries := append(make([]bufEntry, 0, 8), bufEntry{partition: 1, keyOff: 2, keyLen: 3})
	keptEntry := entries[:1]
	bufs.entries.put(entries)
	if keptEntry[0] != poisonEntry {
		t.Errorf("entry kept across the entries put reads %+v, want poison", keptEntry[0])
	}
	if got := bufs.entries.get(); cap(got) != 8 || &got[:1][0] != &entries[0] {
		t.Errorf("get after the entries put returned cap %d, want the recycled 8-entry slice", cap(got))
	}

	buf := getCopyBuf()
	keptBlock := buf[:copy(buf, "a block already written out")]
	putCopyBuf(buf)
	if want := bytes.Repeat([]byte{bytesx.PoisonByte}, len(keptBlock)); !bytes.Equal(keptBlock, want) {
		t.Errorf("view kept across putCopyBuf reads %q, want poison", keptBlock)
	}
}
