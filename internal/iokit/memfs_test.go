package iokit

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
)

// pattern returns n bytes that differ from block to block, so a block
// read out of order or twice cannot compare equal.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8 + i>>16)
	}
	return b
}

// writeChunked writes data to w in pieces of at most chunk bytes.
func writeChunked(t testing.TB, w io.Writer, data []byte, chunk int) {
	t.Helper()
	for len(data) > 0 {
		n := min(chunk, len(data))
		if m, err := w.Write(data[:n]); err != nil || m != n {
			t.Fatalf("Write = %d, %v; want %d", m, err, n)
		}
		data = data[n:]
	}
}

func readAll(t testing.TB, fs FS, name string) []byte {
	t.Helper()
	r, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMemFSBlockBoundaries writes files whose sizes sit on, next to and
// across block boundaries, in write sizes that do and do not line up
// with them, and reads each back through read buffers of several sizes.
func TestMemFSBlockBoundaries(t *testing.T) {
	sizes := []int{0, 1, memBlockSize - 1, memBlockSize, memBlockSize + 1, 3*memBlockSize + 7}
	chunks := []int{1, 7, memBlockSize, 1 << 30}
	fs := NewMemFS()
	var total int64
	var names []string
	for _, size := range sizes {
		for _, chunk := range chunks {
			name := fmt.Sprintf("f/%07d/%010d", size, chunk)
			data := pattern(size)
			w, err := fs.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			writeChunked(t, w, data, chunk)
			if _, err := fs.Size(name); err == nil {
				t.Errorf("%s: visible before Close", name)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			total += int64(size)
			names = append(names, name)

			if got := readAll(t, fs, name); !bytes.Equal(got, data) {
				t.Errorf("%s: content differs (%d bytes read, %d written)", name, len(got), size)
			}
			for _, rb := range []int{1, 4093, memBlockSize, 2 * memBlockSize} {
				if size > memBlockSize+1 && rb == 1 {
					continue // byte-at-a-time over the large files only costs time
				}
				r, _ := fs.Open(name)
				var got []byte
				buf := make([]byte, rb)
				for {
					n, err := r.Read(buf)
					got = append(got, buf[:n]...)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, data) {
					t.Errorf("%s: content differs through a %d-byte read buffer", name, rb)
				}
			}
			if sz, err := fs.Size(name); err != nil || sz != int64(size) {
				t.Errorf("%s: Size = %d, %v", name, sz, err)
			}
		}
	}
	if got := fs.TotalBytes(); got != total {
		t.Errorf("TotalBytes = %d, want %d", got, total)
	}
	listed, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(listed) != fmt.Sprint(names) { // names were generated in sorted order
		t.Errorf("List = %v, want %v", listed, names)
	}
}

// TestMemFSUnlinkSemantics: a reader keeps the content it opened, to
// EOF, through a Remove and through a re-Create of the same name.
func TestMemFSUnlinkSemantics(t *testing.T) {
	fs := NewMemFS()
	old := pattern(2*memBlockSize + 100)
	create := func(data []byte) {
		w, _ := fs.Create("f")
		writeChunked(t, w, data, 1000)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	create(old)

	removed, _ := fs.Open("f")
	head := make([]byte, 10)
	if _, err := io.ReadFull(removed, head); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if rest, err := io.ReadAll(removed); err != nil || !bytes.Equal(append(head, rest...), old) {
		t.Errorf("reader opened before Remove: %d bytes, %v", len(head)+len(rest), err)
	}

	create(old)
	replaced, _ := fs.Open("f")
	w, _ := fs.Create("f")
	writeChunked(t, w, []byte("new content"), 4)
	if got := readAll(t, fs, "f"); !bytes.Equal(got, old) {
		t.Error("re-Create changed the file before its Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(replaced); err != nil || !bytes.Equal(got, old) {
		t.Errorf("reader opened before re-Create: %d bytes, %v", len(got), err)
	}
	if got := readAll(t, fs, "f"); string(got) != "new content" {
		t.Errorf("after re-Create: %q", got)
	}
}

// TestMemFSConcurrentReaders reads one file from many goroutines while
// others create, replace and remove its neighbours; run under -race it
// is what holds readers to not needing the lock.
func TestMemFSConcurrentReaders(t *testing.T) {
	fs := NewMemFS()
	data := pattern(5*memBlockSize + 123)
	w, _ := fs.Create("shared")
	writeChunked(t, w, data, 10000)
	w.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r, err := fs.Open("shared")
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(r)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("reader %d: %d bytes, %v", g, len(got), err)
					return
				}
				name := fmt.Sprintf("other%d", g%3)
				o, _ := fs.Create(name)
				o.Write(data[:g*1000])
				o.Close()
				_ = fs.Remove(name) // a sibling may have removed it already
			}
		}(g)
	}
	wg.Wait()
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMemFSAllocation pins what storing a file costs: a large file is
// allocated once, not regrown; a file under one block costs what it did
// when MemFS kept a file as one append-grown slice.
func TestMemFSAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	fs := NewMemFS()
	// The 16 MiB file arrives the way segment files do: a frame header,
	// then a 64 KiB payload.
	hdr, payload := make([]byte, 7), make([]byte, 64<<10)
	const large = 16 << 20
	got := allocatedBytes(func() {
		w, _ := fs.Create("large")
		for n := 0; n < large; n += len(hdr) + len(payload) {
			w.Write(hdr)
			w.Write(payload)
		}
		w.Close()
	})
	if limit := uint64(large + 2*memBlockSize); got > limit {
		t.Errorf("a 16 MiB file allocated %d bytes, want at most %d", got, limit)
	}

	// 6 KiB in 512-byte writes, then one read through: 22 768 bytes when
	// MemFS kept a file as one slice (22 656 of them append's growth of
	// that slice, the rest the two handles).
	small := make([]byte, 6<<10)
	buf := make([]byte, 4096)
	smallFile := func() {
		w, _ := fs.Create("small")
		for off := 0; off < len(small); off += 512 {
			w.Write(small[off : off+512])
		}
		w.Close()
		r, _ := fs.Open("small")
		for {
			if _, err := r.Read(buf); err != nil {
				break
			}
		}
		r.Close()
	}
	smallFile() // the name's first Create grows the file table
	got = allocatedBytes(smallFile)
	if limit := uint64(22768); got > limit {
		t.Errorf("a 6 KiB file allocated %d bytes, want at most %d", got, limit)
	}
}

// BenchmarkMemFSWrite stores one file of each size, written the way the
// segment sink writes (frame header, 64 KiB payload). B/op against the
// file size is the point: 1x is storing every byte once.
func BenchmarkMemFSWrite(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{{"6KiB", 6 << 10}, {"1MiB", 1 << 20}, {"16MiB", 16 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			fs := NewMemFS()
			hdr, payload := make([]byte, 7), make([]byte, min(bc.size, 64<<10))
			b.SetBytes(int64(bc.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, _ := fs.Create("f")
				for n := 0; n < bc.size; n += len(payload) {
					w.Write(hdr)
					w.Write(payload)
				}
				w.Close()
			}
		})
	}
}
