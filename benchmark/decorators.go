package main

import (
	"io"

	"repro/internal/codec"
	"repro/internal/iokit"
	"repro/internal/mr"
)

// The decorators below sit on the program's public interfaces and do
// nothing but time the calls crossing them. Each user-code decorator
// notes which layer called it; the Emitter and ValueIter it hands on
// charge their time back to that caller, which is what separates a
// function's self time from the engine (or anticombine) work it
// triggers by emitting or pulling a value.

// sampleStride and maxSamples pick the encoded records kept for the
// direct-call measurements: every sampleStride-th record crossing the
// AntiMapper → engine boundary, up to maxSamples.
const (
	sampleStride = 64
	maxSamples   = 4096
)

// emitLayer is where an Emit issued by a Mapper called from caller is
// charged. An Emit reaching the engine from a map task is the collect
// path; everything else returns to the caller.
func emitLayer(caller layer) layer {
	if caller == layerMapTask {
		return layerCollect
	}
	return caller
}

type tracedEmitter struct {
	out    mr.Emitter
	t      *tracer
	layer  layer
	sample bool
}

func (e *tracedEmitter) Emit(key, value []byte) error {
	t := e.t
	if e.sample {
		if t.seen%sampleStride == 0 && len(t.encoded) < maxSamples {
			t.encoded = append(t.encoded, sampledRecord{
				key:   append([]byte(nil), key...),
				value: append([]byte(nil), value...),
			})
		}
		t.seen++
	}
	t.begin(e.layer)
	err := e.out.Emit(key, value)
	t.end()
	return err
}

type tracedValues struct {
	in    mr.ValueIter
	t     *tracer
	layer layer
}

func (v *tracedValues) Next() ([]byte, bool) {
	v.t.begin(v.layer)
	val, ok := v.in.Next()
	v.t.end()
	return val, ok
}

// tracedMapper times one Mapper. layer is layerUserMap for the job's
// own mapper and layerEncode for the AntiMapper wrapped around it; the
// job's own mapper running under an AntiReducer is a LazySH
// re-execution and is charged to layerReexecMap instead.
type tracedMapper struct {
	inner mr.Mapper
	t     *tracer
	layer layer
	em    tracedEmitter
}

func (t *tracer) mapper(inner func() mr.Mapper, l layer) func() mr.Mapper {
	return func() mr.Mapper { return &tracedMapper{inner: inner(), t: t, layer: l} }
}

// enter opens the mapper's span and returns the emitter to hand on.
func (m *tracedMapper) enter(out mr.Emitter) mr.Emitter {
	caller := m.t.top()
	own := m.layer
	if own == layerUserMap && caller == layerDecode {
		own = layerReexecMap
	}
	m.em = tracedEmitter{
		out: out, t: m.t, layer: emitLayer(caller),
		sample: m.layer == layerEncode,
	}
	m.t.begin(own)
	return &m.em
}

func (m *tracedMapper) Setup(info *mr.TaskInfo, out mr.Emitter) error {
	err := m.inner.Setup(info, m.enter(out))
	m.t.end()
	return err
}

func (m *tracedMapper) Map(key, value []byte, out mr.Emitter) error {
	err := m.inner.Map(key, value, m.enter(out))
	m.t.end()
	return err
}

func (m *tracedMapper) Cleanup(out mr.Emitter) error {
	err := m.inner.Cleanup(m.enter(out))
	m.t.end()
	return err
}

// tracedReducer times one Reducer or Combiner: layerUserReduce or
// layerCombine for the job's own, layerDecode for the AntiReducer
// wrapped around either.
type tracedReducer struct {
	inner mr.Reducer
	t     *tracer
	layer layer
	em    tracedEmitter
	vals  tracedValues
}

func (t *tracer) reducer(inner func() mr.Reducer, l layer) func() mr.Reducer {
	return func() mr.Reducer { return &tracedReducer{inner: inner(), t: t, layer: l} }
}

func (r *tracedReducer) enter(out mr.Emitter) mr.Emitter {
	caller := r.t.top()
	r.em = tracedEmitter{out: out, t: r.t, layer: caller}
	r.vals.t, r.vals.layer = r.t, caller
	r.t.begin(r.layer)
	return &r.em
}

func (r *tracedReducer) Setup(info *mr.TaskInfo, out mr.Emitter) error {
	err := r.inner.Setup(info, r.enter(out))
	r.t.end()
	return err
}

func (r *tracedReducer) Reduce(key []byte, values mr.ValueIter, out mr.Emitter) error {
	em := r.enter(out)
	r.vals.in = values
	err := r.inner.Reduce(key, &r.vals, em)
	r.t.end()
	return err
}

func (r *tracedReducer) Cleanup(out mr.Emitter) error {
	err := r.inner.Cleanup(r.enter(out))
	r.t.end()
	return err
}

// countingPartitioner counts Partition calls — the engine's and
// anticombine's — without a span: the call is a few nanoseconds and a
// clock read on either side would be most of what it measured.
type countingPartitioner struct {
	inner mr.Partitioner
	calls *int64
}

func (p *countingPartitioner) Partition(key []byte, n int) int {
	*p.calls++
	return p.inner.Partition(key, n)
}

// tracedCodec times Job.Codec. The stream the codec writes to (or reads
// from) is engine code again — checksum framing, then the file — so it
// is wrapped too and charged back to whoever called the codec.
type tracedCodec struct {
	inner codec.Codec
	t     *tracer
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

const (
	compressSide   = 0
	decompressSide = 1
)

type passThrough struct {
	w     io.Writer
	r     io.Reader
	t     *tracer
	layer layer
	bytes *int64
}

func (p *passThrough) Write(b []byte) (int, error) {
	p.t.begin(p.layer)
	n, err := p.w.Write(b)
	p.t.end()
	*p.bytes += int64(n)
	return n, err
}

func (p *passThrough) Read(b []byte) (int, error) {
	p.t.begin(p.layer)
	n, err := p.r.Read(b)
	p.t.end()
	*p.bytes += int64(n)
	return n, err
}

type codecWriter struct {
	inner io.WriteCloser
	down  *passThrough
	t     *tracer
}

func (c *tracedCodec) NewWriter(w io.Writer) (io.WriteCloser, error) {
	t := c.t
	down := &passThrough{w: w, t: t, layer: t.top(), bytes: &t.codecOut[compressSide]}
	t.begin(layerCompress)
	inner, err := c.inner.NewWriter(down)
	t.end()
	if err != nil {
		return nil, err
	}
	return &codecWriter{inner: inner, down: down, t: t}, nil
}

func (c *codecWriter) Write(b []byte) (int, error) {
	c.down.layer = c.t.top()
	c.t.begin(layerCompress)
	n, err := c.inner.Write(b)
	c.t.end()
	c.t.codecRaw[compressSide] += int64(n)
	return n, err
}

func (c *codecWriter) Close() error {
	c.down.layer = c.t.top()
	c.t.begin(layerCompress)
	err := c.inner.Close()
	c.t.end()
	return err
}

type codecReader struct {
	inner io.ReadCloser
	up    *passThrough
	t     *tracer
}

func (c *tracedCodec) NewReader(r io.Reader) (io.ReadCloser, error) {
	t := c.t
	up := &passThrough{r: r, t: t, layer: t.top(), bytes: &t.codecOut[decompressSide]}
	t.begin(layerDecompress)
	inner, err := c.inner.NewReader(up)
	t.end()
	if err != nil {
		return nil, err
	}
	return &codecReader{inner: inner, up: up, t: t}, nil
}

func (c *codecReader) Read(b []byte) (int, error) {
	c.up.layer = c.t.top()
	c.t.begin(layerDecompress)
	n, err := c.inner.Read(b)
	c.t.end()
	c.t.codecRaw[decompressSide] += int64(n)
	return n, err
}

func (c *codecReader) Close() error {
	c.up.layer = c.t.top()
	c.t.begin(layerDecompress)
	err := c.inner.Close()
	c.t.end()
	return err
}

// tracedFS times Job.FS and counts its traffic.
type tracedFS struct {
	inner iokit.FS
	t     *tracer
}

func (f *tracedFS) Create(name string) (io.WriteCloser, error) {
	f.t.begin(layerFSWrite)
	w, err := f.inner.Create(name)
	f.t.end()
	if err != nil {
		return nil, err
	}
	f.t.fs.created++
	return &tracedFile{w: w, c: w, t: f.t, layer: layerFSWrite}, nil
}

func (f *tracedFS) Open(name string) (io.ReadCloser, error) {
	f.t.begin(layerFSRead)
	r, err := f.inner.Open(name)
	f.t.end()
	if err != nil {
		return nil, err
	}
	return &tracedFile{r: r, c: r, t: f.t, layer: layerFSRead}, nil
}

func (f *tracedFS) Remove(name string) error {
	f.t.begin(layerFSWrite)
	err := f.inner.Remove(name)
	f.t.end()
	return err
}

func (f *tracedFS) Size(name string) (int64, error) {
	f.t.begin(layerFSRead)
	n, err := f.inner.Size(name)
	f.t.end()
	return n, err
}

func (f *tracedFS) List() ([]string, error) {
	f.t.begin(layerFSRead)
	names, err := f.inner.List()
	f.t.end()
	return names, err
}

type tracedFile struct {
	w     io.Writer
	r     io.Reader
	c     io.Closer
	t     *tracer
	layer layer
}

func (f *tracedFile) Write(b []byte) (int, error) {
	f.t.begin(layerFSWrite)
	n, err := f.w.Write(b)
	f.t.end()
	f.t.fs.writeBytes += int64(n)
	f.t.fs.writeOps++
	return n, err
}

func (f *tracedFile) Read(b []byte) (int, error) {
	f.t.begin(layerFSRead)
	n, err := f.r.Read(b)
	f.t.end()
	f.t.fs.readBytes += int64(n)
	f.t.fs.readOps++
	return n, err
}

func (f *tracedFile) Close() error {
	f.t.begin(f.layer)
	err := f.c.Close()
	f.t.end()
	return err
}
