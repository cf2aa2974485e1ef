package mr

import (
	"strconv"
	"strings"
	"testing"
)

func sumCombine(acc, v []byte) []byte {
	a, _ := strconv.Atoi(string(acc))
	b, _ := strconv.Atoi(string(v))
	return []byte(strconv.Itoa(a + b))
}

func TestInMapperCombiningCorrectness(t *testing.T) {
	base := wordCountJob(false)
	input := lines(strings.Repeat("alpha beta gamma alpha ", 500))
	plain, err := Run(base, input)
	if err != nil {
		t.Fatal(err)
	}
	imc := wordCountJob(false)
	imc.NewMapper = InMapperCombining(imc.NewMapper, sumCombine, 0)
	combined, err := Run(imc, input)
	if err != nil {
		t.Fatal(err)
	}
	got, want := outputMap(t, combined), outputMap(t, plain)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%q: %q != %q", k, got[k], v)
		}
	}
	// The table collapses per-task duplicates, so far fewer records
	// reach the framework.
	if combined.Stats.MapOutputRecords*10 > plain.Stats.MapOutputRecords {
		t.Errorf("in-mapper combining emitted %d records vs %d plain",
			combined.Stats.MapOutputRecords, plain.Stats.MapOutputRecords)
	}
}

func TestInMapperCombiningFlushesAtCapacity(t *testing.T) {
	job := wordCountJob(false)
	job.NewMapper = InMapperCombining(job.NewMapper, sumCombine, 2) // tiny table
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		sb.WriteString("w")
		sb.WriteString(strconv.Itoa(i))
		sb.WriteString(" ")
	}
	res, err := Run(job, lines(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(outputMap(t, res)); got != 100 {
		t.Errorf("distinct words = %d, want 100", got)
	}
	// With capacity 2 and 100 distinct words, many flushes must occur,
	// so the emission count stays near the raw count.
	if res.Stats.MapOutputRecords < 90 {
		t.Errorf("records = %d; tiny table should flush often", res.Stats.MapOutputRecords)
	}
}

// cleanupEmitter emits one count from Cleanup, as a mapper that flushes
// its own state at the end of the task does.
type cleanupEmitter struct{ MapperBase }

func (cleanupEmitter) Map(_, _ []byte, _ Emitter) error { return nil }
func (cleanupEmitter) Cleanup(out Emitter) error        { return out.Emit([]byte("tail"), []byte("7")) }

// TestInMapperCombiningKeepsCleanupEmissions: what the inner mapper
// emits from Cleanup is folded and flushed too, not dropped.
func TestInMapperCombiningKeepsCleanupEmissions(t *testing.T) {
	job := wordCountJob(false)
	job.NewMapper = InMapperCombining(func() Mapper { return cleanupEmitter{} }, sumCombine, 0)
	res, err := Run(job, lines("x"))
	if err != nil {
		t.Fatal(err)
	}
	if got := outputMap(t, res)["tail"]; got != "7" {
		t.Errorf("tail = %q, want 7 (the inner Cleanup's emission)", got)
	}
}
