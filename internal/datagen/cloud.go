package datagen

import (
	"math"
	"strconv"
	"strings"
)

// CloudConfig shapes the Cloud substitute: extended cloud reports from
// ships and land stations, 28 attributes per record (Hahn & Warren).
// The theta-join of §7.7.3 equi-joins on (date, longitude) and bands on
// latitude, so those three attributes are generated with realistic
// clustering; the remaining 25 are filler measurements.
type CloudConfig struct {
	// Seed makes the data reproducible.
	Seed uint64
	// Records is the record count.
	Records int
	// Days is the number of distinct report dates. Defaults to 30.
	Days int
	// Stations is the number of distinct (longitude) stations per day
	// bucket. Defaults to 100.
	Stations int
}

func (c CloudConfig) normalized() CloudConfig {
	if c.Days <= 0 {
		c.Days = 30
	}
	if c.Stations <= 0 {
		c.Stations = 100
	}
	return c
}

// CloudRecord is one synoptic report. Attr holds the 25 filler
// measurement attributes.
type CloudRecord struct {
	Date      int32 // yyyymmdd
	Longitude int32 // tenths of a degree, 0..3599
	Latitude  int32 // tenths of a degree, -900..900
	Attr      [25]int32
}

// Line renders the record as the comma-separated input format.
func (r CloudRecord) Line() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(r.Date)))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(int(r.Longitude)))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(int(r.Latitude)))
	for _, a := range r.Attr {
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(int(a)))
	}
	return b.String()
}

// ParseCloudLine parses the first three attributes of a record line:
// the comma-separated fields before the third comma (the third runs to
// the end of the line when there is none). Each must be what
// strconv.Atoi accepts — an optional sign and decimal digits, within the
// int64 range — and is truncated to int32 as a conversion would. It
// parses all three fields in one scan of line and allocates nothing.
func ParseCloudLine(line []byte) (date, longitude, latitude int32, ok bool) {
	var v [3]int32
	i := 0
	for f := range v {
		start := i
		neg := false
		if i < len(line) && (line[i] == '+' || line[i] == '-') {
			neg = line[i] == '-'
			i++
		}
		digits := i
		// Arithmetic mod 2^32 is the int32 truncation of the value.
		var n uint32
		for ; i < len(line); i++ {
			d := line[i] - '0'
			if d > 9 {
				break
			}
			n = n*10 + uint32(d)
		}
		if i == digits {
			return 0, 0, 0, false
		}
		if neg {
			n = -n
		}
		v[f] = int32(n)
		if i-digits > 18 {
			// Only a run of 19 or more digits can leave the int64 range.
			if _, ok := atoi(line[start:i]); !ok {
				return 0, 0, 0, false
			}
		}
		switch {
		case i < len(line) && line[i] == ',':
			i++
		case i < len(line) || f < 2:
			return 0, 0, 0, false
		}
	}
	return v[0], v[1], v[2], true
}

// atoi is strconv.Atoi's accept set on bytes: an optional '+' or '-',
// then one or more decimal digits, within the int64 range.
func atoi(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// Cloud is a deterministic report generator.
type Cloud struct {
	cfg CloudConfig
}

// NewCloud returns a generator.
func NewCloud(cfg CloudConfig) *Cloud { return &Cloud{cfg: cfg.normalized()} }

// Record generates report i.
func (c *Cloud) Record(i int) CloudRecord {
	rng := NewRNG(c.cfg.Seed ^ 0xc10d).Fork(uint64(i) + 1)
	day := rng.Intn(c.cfg.Days)
	rec := CloudRecord{
		Date:      int32(20110301 + day), // a synthetic yyyymmdd run
		Longitude: int32(rng.Intn(c.cfg.Stations) * (3600 / c.cfg.Stations)),
		Latitude:  int32(rng.Intn(1801) - 900),
	}
	for j := range rec.Attr {
		rec.Attr[j] = int32(rng.Intn(1000))
	}
	return rec
}

// Len reports the configured record count.
func (c *Cloud) Len() int { return c.cfg.Records }
