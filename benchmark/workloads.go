package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/anticombine"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/mr"
	"repro/internal/workloads/querysuggest"
	"repro/internal/workloads/sortwl"
	"repro/internal/workloads/thetajoin"
	"repro/internal/workloads/wordcount"
)

// workload is one benchmark input: a record source, the Original job
// and the Anti-Combining options that turn it into the AdaptiveSH job.
// Sizes are fixed here (and repeated in README.md) so every commit is
// measured on the same inputs; see README.md for why each was chosen.
type workload struct {
	name  string
	fleet bool // run on the 2-worker fleet instead of the in-process engine
	// disk puts the fleet workers on OSFS directories instead of MemFS.
	// Only sort_cluster does: it is the bandwidth-bound use of the
	// transport, where real files (and sendfile) are the point. On
	// wc_cluster the subject is the control plane, and on the ext4 of
	// the machines this runs on a file create costs 300–470 µs and drifts
	// by the minute — 250 creates per job made the disk, not the control
	// plane, the dominant and least steady term (± 30 % run to run).
	disk     bool
	splits   int
	reducers int
	records  int // input records at -scale 1
	// source returns the corpus's record stream: record i's value, for
	// any i ≥ 0. Keys are nil, as in every workload's own Splits helper.
	source func(records int) func(i int) []byte
	base   func(reducers int) *mr.Job
	anti   anticombine.Options
}

// corpusSeed fixes each workload's corpus — vocabulary, query pool,
// station grid. The -seed argument picks which window of the corpus's
// unbounded record stream a run reads, so runs on different seeds get
// different inputs drawn from one distribution and do the same amount
// of work to within sampling noise. Seeding datagen itself with -seed
// redraws the vocabulary, and with it the input's size: Original's
// map output on qs_lazy then moves by ± 30 % from seed to seed.
const corpusSeed = 2014

func randomText(wordsPerLine int) func(records int) func(i int) []byte {
	return func(records int) func(i int) []byte {
		text := datagen.NewRandomText(datagen.RandomTextConfig{
			Seed: corpusSeed, Lines: records, WordsPerLine: wordsPerLine,
		})
		return func(i int) []byte { return []byte(text.Line(i)) }
	}
}

// wordCountAnti is E8's configuration: the monoid-derived combiner is
// effective, so AdaptiveSH keeps it (transformed) in the map phase.
var wordCountAnti = anticombine.Options{Strategy: anticombine.Adaptive, MapCombiner: true}

var workloads = []*workload{
	{
		name: "qs_lazy", splits: 8, reducers: 8, records: 80000,
		source: func(records int) func(i int) []byte {
			log := datagen.NewQueryLog(datagen.QueryLogConfig{Seed: corpusSeed, Queries: records})
			return func(i int) []byte { return []byte(log.Record(i).Query) }
		},
		base: func(reducers int) *mr.Job {
			return querysuggest.NewJob(querysuggest.Config{
				Partitioner: querysuggest.PrefixPartitioner{K: 1}, Reducers: reducers,
			}, false)
		},
		// Shared's budget is scaled down with the data, as E8 scales the
		// sort buffer: at the default 1 MiB each reducer's Shared spills
		// once or twice, and whether a run sees 10 or 11 spills in all
		// moves job_disk_mb by 8 %. At 256 KiB there are about ninety, one
		// spill is 1 % of the disk traffic, and the two largest partitions
		// pass the merge factor, so the spill-merge path runs too. At
		// 128 KiB more partitions sit next to a merge threshold, and
		// whether a seed's window tips one over moves job_disk_mb by 8 %
		// again (110 or 123 MB).
		anti: anticombine.Options{Strategy: anticombine.Adaptive, SharedMemLimitBytes: 256 << 10},
	},
	{
		name: "sort_plain", splits: 8, reducers: 8, records: 300000,
		source: randomText(0),
		base:   sortwl.NewJob,
		anti:   anticombine.AdaptiveInf(),
	},
	{
		name: "wc_eager", splits: 8, reducers: 8, records: 30000,
		source: randomText(60),
		base:   wordcount.NewJob,
		anti:   wordCountAnti,
	},
	{
		name: "theta_snappy", splits: 8, reducers: 8, records: 7000,
		source: func(records int) func(i int) []byte {
			cloud := datagen.NewCloud(datagen.CloudConfig{Seed: corpusSeed, Records: records})
			return func(i int) []byte { return []byte(cloud.Record(i).Line()) }
		},
		base: func(reducers int) *mr.Job {
			// 33×33 regions reproduce the paper's ≈ 66× replication.
			job := thetajoin.NewJob(thetajoin.Config{Rows: 33, Cols: 33, Reducers: reducers})
			job.Codec = codec.Snappy{}
			return job
		},
		// Regenerated regions must fit Shared, as in experiments.ThetaJoin:
		// the default 1 MiB would turn the job into a Shared-spill test.
		anti: anticombine.Options{Strategy: anticombine.Adaptive, SharedMemLimitBytes: 64 << 20},
	},
	{
		name: "wc_cluster", fleet: true, splits: 8, reducers: 8, records: 4000,
		source: randomText(60),
		base:   wordcount.NewJob,
		anti:   wordCountAnti,
	},
	{
		name: "sort_cluster", fleet: true, disk: true, splits: 4, reducers: 2, records: 200000,
		source: randomText(0),
		base:   sortwl.NewJob,
		anti:   anticombine.AdaptiveInf(),
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// variant names the two jobs every workload runs: "orig" is the
// unwrapped Original, "job" the anticombine.Wrap'ped AdaptiveSH one.
type variant string

const (
	orig variant = "orig"
	anti variant = "job"
)

var variants = []variant{orig, anti}

// buildJob assembles a variant's mr.Job. With a non-nil tracer every
// public interface boundary gets a timing decorator: the user's
// Mapper/Reducer/Combiner inside anticombine.Wrap, the wrapped ones
// outside it, and the Partitioner and Codec.
func (w *workload) buildJob(v variant, t *tracer) *mr.Job {
	job := w.base(w.reducers)
	if t != nil {
		job.NewMapper = t.mapper(job.NewMapper, layerUserMap)
		job.NewReducer = t.reducer(job.NewReducer, layerUserReduce)
		if job.NewCombiner != nil {
			job.NewCombiner = t.reducer(job.NewCombiner, layerCombine)
		}
		if job.Partitioner == nil {
			job.Partitioner = mr.HashPartitioner{}
		}
		job.Partitioner = &countingPartitioner{inner: job.Partitioner, calls: &t.partitionCalls}
		if job.Codec != nil {
			job.Codec = &tracedCodec{inner: job.Codec, t: t}
		}
	}
	if v == anti {
		job = anticombine.Wrap(job, w.anti)
		if t != nil {
			job.NewMapper = t.mapper(job.NewMapper, layerEncode)
			job.NewReducer = t.reducer(job.NewReducer, layerDecode)
			if job.NewCombiner != nil {
				job.NewCombiner = t.reducer(job.NewCombiner, layerDecode)
			}
		}
	}
	return job
}

// input is one generated, materialised data set. The program under
// test only ever sees Splits.
type input struct {
	splits  []mr.Split
	records int64
	bytes   int64
	genTime time.Duration
}

type inputKey struct {
	workload string
	seed     uint64
	records  int
}

// inputs memoises generated splits. The fleet's job builders run on the
// coordinator and on every worker, inside the timed job; looking the
// splits up here keeps datagen out of job_wall_s.
var inputs sync.Map // inputKey → *input

func (w *workload) scaled(scale float64) int {
	return max(int(float64(w.records)*scale), w.splits)
}

// generate builds and materialises the workload's input — the seed's
// window of the corpus, cut into equal contiguous splits — replacing
// any memoised copy so that every set-up pays (and times) datagen.
func (w *workload) generate(seed uint64, records int) *input {
	start := time.Now()
	in := &input{records: int64(records)}
	record := w.source(records)
	first := int(seed%(1<<20)) * records
	per := (records + w.splits - 1) / w.splits
	for lo := 0; lo < records; lo += per {
		hi := min(lo+per, records)
		recs := make([]mr.Record, 0, hi-lo)
		for i := lo; i < hi; i++ {
			value := record(first + i)
			in.bytes += int64(len(value))
			recs = append(recs, mr.Record{Value: value})
		}
		in.splits = append(in.splits, &mr.MemSplit{Recs: recs})
	}
	in.genTime = time.Since(start)
	inputs.Store(inputKey{w.name, seed, records}, in)
	return in
}

func (w *workload) input(seed uint64, records int) *input {
	if in, ok := inputs.Load(inputKey{w.name, seed, records}); ok {
		return in.(*input)
	}
	return w.generate(seed, records)
}

// fleetSpec is the wire form of a fleet job: coordinator and workers
// rebuild the same job from it.
type fleetSpec struct {
	Seed    uint64
	Records int
	Variant variant
}

func (w *workload) fleetJob(seed uint64, records int, v variant) cluster.JobSpec {
	spec, err := json.Marshal(fleetSpec{Seed: seed, Records: records, Variant: v})
	if err != nil {
		panic(err) // a struct of two integers and a string always marshals
	}
	return cluster.JobSpec{Ref: cluster.JobRef{Name: "bench/" + w.name, Spec: spec}}
}

func init() {
	for _, w := range workloads {
		if !w.fleet {
			continue
		}
		cluster.RegisterJob("bench/"+w.name, func(raw []byte) (*mr.Job, []mr.Split, error) {
			var spec fleetSpec
			if err := json.Unmarshal(raw, &spec); err != nil {
				return nil, nil, fmt.Errorf("benchmark: bad fleet spec: %w", err)
			}
			return w.buildJob(spec.Variant, nil), w.input(spec.Seed, spec.Records).splits, nil
		})
	}
}
