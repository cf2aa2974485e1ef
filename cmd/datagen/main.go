// Command datagen writes the synthetic datasets standing in for the
// paper's inputs (QLog, RandomText, ClueWeb09-like graph, Cloud) to a
// file, one record per line, for inspection or external use.
//
// Usage:
//
//	datagen -dataset qlog -n 100000 -out qlog.tsv
//	datagen -dataset graph -n 50000 -out graph.adj
//
// It exits 2 on a bad flag or dataset name, before creating any file,
// and 1 when the output cannot be created or written.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/datagen"
)

// datasets maps each -dataset name to its writer.
var datasets = map[string]func(w io.Writer, seed uint64, n int){
	"qlog": func(w io.Writer, seed uint64, n int) {
		q := datagen.NewQueryLog(datagen.QueryLogConfig{Seed: seed, Queries: n})
		for i := 0; i < q.Len(); i++ {
			fmt.Fprintln(w, q.Record(i).Line())
		}
	},
	"randomtext": func(w io.Writer, seed uint64, n int) {
		t := datagen.NewRandomText(datagen.RandomTextConfig{Seed: seed, Lines: n})
		for i := 0; i < t.Len(); i++ {
			fmt.Fprintln(w, t.Line(i))
		}
	},
	"cloud": func(w io.Writer, seed uint64, n int) {
		c := datagen.NewCloud(datagen.CloudConfig{Seed: seed, Records: n})
		for i := 0; i < c.Len(); i++ {
			fmt.Fprintln(w, c.Record(i).Line())
		}
	},
	"graph": func(w io.Writer, seed uint64, n int) {
		g := datagen.NewGraph(datagen.GraphConfig{Seed: seed, Nodes: n})
		for node, adj := range g.Out {
			line := strconv.Itoa(node)
			for _, dst := range adj {
				line += "\t" + strconv.Itoa(int(dst))
			}
			fmt.Fprintln(w, line)
		}
	},
}

// errUsage marks a bad command line, which exits 2.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, writes the dataset to -out (or
// stdout when -out is -), and returns the first error creating,
// writing, flushing or closing the output.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset = fs.String("dataset", "qlog", "dataset: qlog|randomtext|cloud|graph")
		n       = fs.Int("n", 10000, "number of records (nodes for graph)")
		seed    = fs.Uint64("seed", 2014, "generator seed")
		out     = fs.String("out", "-", "output file (- for stdout)")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return errUsage
	}
	gen, ok := datasets[*dataset]
	if !ok {
		fmt.Fprintf(stderr, "datagen: unknown dataset %q\n", *dataset)
		return errUsage
	}
	if *out == "-" {
		w := bufio.NewWriter(stdout)
		gen(w, *seed, *n)
		return w.Flush()
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	gen(w, *seed, *n)
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
