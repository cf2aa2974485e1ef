package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSinkIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(KindMap, "map/0", time.Now(), time.Now(), Int("attempt", 0))
	sp := tr.Start(KindJob, "job")
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	sp.Annotate(Str("k", "v"))
	sp.End()
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer Spans = %v, want nil", got)
	}

	var reg *Registry
	unreg := reg.Register("x", func() map[string]int64 { return nil })
	unreg()
	if snap := reg.Snapshot(); len(snap.Values) != 0 {
		t.Fatalf("nil registry snapshot = %v, want empty", snap.Values)
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start(KindMap, "map/0", Int("attempt", 0))
	sp.Annotate(Bool("speculative", false))
	sp.End(Str("outcome", "success"))
	t0 := time.Now()
	tr.Record(KindSharedSpill, "spill0", t0, t0.Add(time.Millisecond), Int("bytes", 42))

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	s := spans[0]
	if s.Kind != KindMap || s.Name != "map/0" {
		t.Fatalf("span 0 = %+v", s)
	}
	if s.Attr("attempt") != "0" || s.Attr("speculative") != "false" || s.Attr("outcome") != "success" {
		t.Fatalf("span 0 attrs = %v", s.Attrs)
	}
	if s.Attr("missing") != "" {
		t.Fatalf("missing attr should be empty")
	}
	if spans[1].Duration() != time.Millisecond {
		t.Fatalf("span 1 duration = %v", spans[1].Duration())
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Start(KindFetch, "f").End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 1600 {
		t.Fatalf("got %d spans, want 1600", got)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	t0 := time.Now()
	// Two overlapping map spans must land on distinct lanes; the fetch
	// span gets its own thread block.
	tr.Record(KindMap, "map/0", t0, t0.Add(10*time.Millisecond), Int("attempt", 0))
	tr.Record(KindMap, "map/1", t0.Add(time.Millisecond), t0.Add(8*time.Millisecond))
	tr.Record(KindFetch, "fetch/0/0", t0.Add(5*time.Millisecond), t0.Add(12*time.Millisecond))

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, meta int
	tids := map[string]float64{}
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
			tids[e["name"].(string)] = e["tid"].(float64)
		case "M":
			meta++
		}
	}
	if complete != 3 {
		t.Fatalf("got %d complete events, want 3", complete)
	}
	if meta != 3 { // map lane 0, map lane 1, fetch lane
		t.Fatalf("got %d metadata events, want 3", meta)
	}
	if tids["map/0"] == tids["map/1"] {
		t.Fatalf("overlapping map spans share tid %v", tids["map/0"])
	}
	if tids["fetch/0/0"] == tids["map/0"] || tids["fetch/0/0"] == tids["map/1"] {
		t.Fatalf("fetch span shares a map lane")
	}
}

func TestRegistrySnapshotMergesAndPrefixes(t *testing.T) {
	reg := NewRegistry()
	unregA := reg.Register("job", func() map[string]int64 { return map[string]int64{"records": 10} })
	reg.Register("job", func() map[string]int64 { return map[string]int64{"records": 20} })

	snap := reg.Snapshot()
	if snap.Values["job/records"] != 10 || snap.Values["job#2/records"] != 20 {
		t.Fatalf("snapshot = %v", snap.Values)
	}
	if got := snap.Keys(); len(got) != 2 || got[0] != "job#2/records" && got[0] != "job/records" {
		t.Fatalf("keys = %v", got)
	}

	unregA()
	snap = reg.Snapshot()
	if _, ok := snap.Values["job/records"]; ok {
		t.Fatalf("unregistered source still present: %v", snap.Values)
	}
	if snap.Values["job#2/records"] != 20 {
		t.Fatalf("surviving source lost: %v", snap.Values)
	}
}

func TestReporterWritesJSONLines(t *testing.T) {
	var n int64
	reg := NewRegistry()
	reg.Register("job", func() map[string]int64 {
		n += 5
		return map[string]int64{"records": n}
	})
	var buf bytes.Buffer
	rep := NewReporter(&buf, reg, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	rep.Stop()

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	var lines int
	var last int64
	for sc.Scan() {
		var line struct {
			Values map[string]int64   `json:"values"`
			Rates  map[string]float64 `json:"rates"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		v := line.Values["job/records"]
		if v < last {
			t.Fatalf("values not monotonic: %d after %d", v, last)
		}
		if line.Rates["job/records"] <= 0 {
			t.Fatalf("rate missing for growing counter: %v", line.Rates)
		}
		last = v
		lines++
	}
	if lines < 2 {
		t.Fatalf("got %d report lines, want >= 2 (ticks + final)", lines)
	}
}
