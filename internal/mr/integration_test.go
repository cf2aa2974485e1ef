package mr

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/codec"
)

// TestFullPipelineMatrix drives the engine end-to-end across transports
// (the in-process engine, and the fleet's task path over the wire),
// codecs, and buffer pressure simultaneously, checking results against a
// single uncompressed local baseline. This is the engine's widest
// configuration sweep; the anticombine package runs the analogous sweep
// with the transformation applied on top.
func TestFullPipelineMatrix(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "word%03d common ", i*37%90)
	}
	input := lines(sb.String(), sb.String(), "extra words common here")

	baseline, err := Run(wordCountJob(true), input)
	if err != nil {
		t.Fatal(err)
	}
	want := outputMap(t, baseline)

	for _, codecName := range []string{"none", "gzip", "snappy", "bwsc"} {
		for _, tcp := range []bool{false, true} {
			for _, tinyBuf := range []bool{false, true} {
				name := fmt.Sprintf("%s/tcp=%v/tiny=%v", codecName, tcp, tinyBuf)
				t.Run(name, func(t *testing.T) {
					c, err := codec.ByName(codecName)
					if err != nil {
						t.Fatal(err)
					}
					job := wordCountJob(true)
					job.Codec = c
					if tinyBuf {
						job.SortBufferBytes = 512
						job.MergeFactor = 2
					}
					run := runner(Run)
					if tcp {
						run = overWire(false)
					}
					res, err := run(job, input)
					if err != nil {
						t.Fatal(err)
					}
					got := outputMap(t, res)
					if len(got) != len(want) {
						t.Fatalf("key count %d != %d", len(got), len(want))
					}
					for k, v := range want {
						if got[k] != v {
							t.Errorf("%q = %q, want %q", k, got[k], v)
						}
					}
				})
			}
		}
	}
}
