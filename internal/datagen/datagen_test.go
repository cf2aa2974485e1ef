package datagen

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d collisions", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	rng := NewRNG(1)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[rng.Intn(10)]++
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/10) > n/100 {
			t.Errorf("bucket %d = %d, expected ~%d", i, c, n/10)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(2)
	for i := 0; i < 10000; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	base := NewRNG(7)
	f1 := base.Fork(1)
	base2 := NewRNG(7)
	_ = base2.Uint64() // consume what Fork consumed
	f1b := NewRNG(7).Fork(1)
	if f1.Uint64() != f1b.Uint64() {
		t.Error("Fork must be deterministic per (seed, stream)")
	}
}

func TestHash64Stable(t *testing.T) {
	h1 := Hash64([]byte("anti-combining"))
	h2 := Hash64([]byte("anti-combining"))
	if h1 != h2 {
		t.Error("Hash64 must be deterministic")
	}
	if Hash64([]byte("a")) == Hash64([]byte("b")) {
		t.Error("trivial collision")
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 1.2)
	rng := NewRNG(3)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(rng)]++
	}
	if counts[0] < counts[100]*10 {
		t.Errorf("rank 0 (%d) should dominate rank 100 (%d)", counts[0], counts[100])
	}
	// Monotone on average: head heavier than tail.
	head, tail := 0, 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	for i := 990; i < 1000; i++ {
		tail += counts[i]
	}
	if head < tail*20 {
		t.Errorf("head %d vs tail %d: not skewed enough", head, tail)
	}
}

func TestZipfRangeProperty(t *testing.T) {
	z := NewZipf(50, 1.0)
	rng := NewRNG(4)
	f := func(_ uint8) bool {
		s := z.Sample(rng)
		return s >= 0 && s < 50
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQueryLog(t *testing.T) {
	q := NewQueryLog(QueryLogConfig{Seed: 1, Queries: 5000})
	if q.Len() != 5000 {
		t.Errorf("Len = %d", q.Len())
	}
	// Deterministic per index.
	if q.Record(17) != q.Record(17) {
		t.Error("Record must be deterministic")
	}
	// Popularity skew: the most frequent query should repeat a lot.
	freq := map[string]int{}
	for i := 0; i < q.Len(); i++ {
		freq[q.Record(i).Query]++
	}
	maxFreq := 0
	for _, f := range freq {
		if f > maxFreq {
			maxFreq = f
		}
	}
	if maxFreq < 50 {
		t.Errorf("top query appears only %d times; want heavy skew", maxFreq)
	}
	// Average length near QLog's 19.07.
	avg := q.AvgQueryLen()
	if avg < 10 || avg > 30 {
		t.Errorf("avg query length %f outside a plausible band", avg)
	}
	// Line format round trip.
	rec := q.Record(3)
	if got := string(ParseQueryLine([]byte(rec.Line()))); got != rec.Query {
		t.Errorf("ParseQueryLine = %q, want %q", got, rec.Query)
	}
}

func TestParseQueryLineDegenerate(t *testing.T) {
	if got := string(ParseQueryLine([]byte("justonefield"))); got != "justonefield" {
		t.Errorf("no tabs: %q", got)
	}
	if got := string(ParseQueryLine([]byte("u1\tquery only"))); got != "query only" {
		t.Errorf("one tab: %q", got)
	}
}

func TestRandomText(t *testing.T) {
	rt := NewRandomText(RandomTextConfig{Seed: 2, Lines: 100})
	if rt.Len() != 100 {
		t.Errorf("Len = %d", rt.Len())
	}
	if rt.Line(5) != rt.Line(5) {
		t.Error("Line must be deterministic")
	}
	if rt.Line(5) == rt.Line(6) {
		t.Error("different lines should differ")
	}
	if len(strings.Fields(rt.Line(0))) == 0 {
		t.Error("line should contain words")
	}
}

func TestGraphSkew(t *testing.T) {
	g := NewGraph(GraphConfig{Seed: 3, Nodes: 2000, AvgOutDegree: 10})
	edges := g.Edges()
	if edges < 15000 || edges > 25000 {
		t.Errorf("edges = %d, want ~20000", edges)
	}
	if g.MaxOutDegree() < 50 {
		t.Errorf("max out-degree %d: power law should create hubs", g.MaxOutDegree())
	}
	for node, adj := range g.Out {
		for _, dst := range adj {
			if dst < 0 || int(dst) >= 2000 {
				t.Fatalf("node %d has out-of-range edge %d", node, dst)
			}
		}
	}
}

func TestCloud(t *testing.T) {
	c := NewCloud(CloudConfig{Seed: 4, Records: 1000, Days: 10, Stations: 20})
	if c.Len() != 1000 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Record(9) != c.Record(9) {
		t.Error("Record must be deterministic")
	}
	dates := map[int32]bool{}
	for i := 0; i < 1000; i++ {
		r := c.Record(i)
		dates[r.Date] = true
		if r.Latitude < -900 || r.Latitude > 900 {
			t.Fatalf("latitude out of range: %d", r.Latitude)
		}
		if r.Longitude < 0 || r.Longitude >= 3600 {
			t.Fatalf("longitude out of range: %d", r.Longitude)
		}
	}
	if len(dates) != 10 {
		t.Errorf("distinct dates = %d, want 10", len(dates))
	}
	rec := c.Record(0)
	d, lon, lat, ok := ParseCloudLine([]byte(rec.Line()))
	if !ok || d != rec.Date || lon != rec.Longitude || lat != rec.Latitude {
		t.Errorf("ParseCloudLine mismatch: %d %d %d %v", d, lon, lat, ok)
	}
	if n := strings.Count(rec.Line(), ","); n != 27 {
		t.Errorf("record has %d commas, want 27 (28 attributes)", n)
	}
}

func TestParseCloudLineBad(t *testing.T) {
	for _, bad := range []string{"", "1,2", "a,b,c", "1,2,x"} {
		if _, _, _, ok := ParseCloudLine([]byte(bad)); ok {
			t.Errorf("ParseCloudLine(%q) should fail", bad)
		}
	}
}

// parseCloudLineRef is ParseCloudLine as it was written before it
// scanned in place: the reference FuzzParseCloudLine holds it to.
func parseCloudLineRef(line []byte) (date, longitude, latitude int32, ok bool) {
	fields := strings.SplitN(string(line), ",", 4)
	if len(fields) < 3 {
		return 0, 0, 0, false
	}
	d, err1 := strconv.Atoi(fields[0])
	lon, err2 := strconv.Atoi(fields[1])
	lat, err3 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, false
	}
	return int32(d), int32(lon), int32(lat), true
}

// FuzzParseCloudLine checks the in-place parser against the
// SplitN+Atoi reference: signs, overflow, empty fields, a third field
// running to the end of the line.
func FuzzParseCloudLine(f *testing.F) {
	for _, seed := range []string{
		NewCloud(CloudConfig{Seed: 1, Records: 1}).Record(0).Line(),
		"", "1,2", "1,2,3", "1,2,3,", ",,", "+1,-2,+0", "-,+,1", "1,2,3\n",
		"9223372036854775807,-9223372036854775808,1",
		"9223372036854775808,1,1", "1,-9223372036854775809,1",
		"4294967296,2147483648,-2147483649", "00012,0x1f,1_000", "1, 2,3",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		d, lon, lat, ok := ParseCloudLine(line)
		wd, wlon, wlat, wok := parseCloudLineRef(line)
		if d != wd || lon != wlon || lat != wlat || ok != wok {
			t.Fatalf("ParseCloudLine(%q) = %d %d %d %v, reference %d %d %d %v",
				line, d, lon, lat, ok, wd, wlon, wlat, wok)
		}
	})
}

func TestParseCloudLineDoesNotAllocate(t *testing.T) {
	line := []byte(NewCloud(CloudConfig{Seed: 3, Records: 1}).Record(0).Line())
	if n := testing.AllocsPerRun(50, func() { ParseCloudLine(line) }); n != 0 {
		t.Errorf("ParseCloudLine allocates %v times per call, want 0", n)
	}
}

func TestHash64Tagged2MatchesConcatenation(t *testing.T) {
	// Routing, LazySH re-execution and the experiment digests all depend
	// on the tagged hashes equalling Hash64 of the concatenation.
	rng := NewRNG(7)
	tags := []string{"S|", "T|", "sr|", "sc|", "", "x"}
	for i := 0; i < 2000; i++ {
		value := make([]byte, rng.Intn(200))
		for j := range value {
			value[j] = byte(rng.Uint64())
		}
		a, b := tags[rng.Intn(len(tags))], tags[rng.Intn(len(tags))]
		ha, hb := Hash64Tagged2(a, b, value)
		if want := Hash64(append([]byte(a), value...)); ha != want {
			t.Fatalf("Hash64Tagged2(%q, _, %q) lane A = %x, want %x", a, value, ha, want)
		}
		if want := Hash64(append([]byte(b), value...)); hb != want {
			t.Fatalf("Hash64Tagged2(_, %q, %q) lane B = %x, want %x", b, value, hb, want)
		}
	}
}
