// Command snap-bench regenerates the tables and figures of the paper's
// evaluation (Section 5). By default every experiment runs at a
// reduced scale suitable for a single machine; pass -scale 1 for
// paper-sized instances.
//
// Usage:
//
//	snap-bench -all
//	snap-bench -table 1 -scale 0.25
//	snap-bench -figure 2 -workers 1,2,4,8
//	snap-bench -table 2 -gn-maxn 500
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"snap/internal/bench"
)

func main() {
	var (
		table   = flag.String("table", "", "table to regenerate: 1, 2, or 3")
		figure  = flag.String("figure", "", "figure to regenerate: 2, 3a, or 3b")
		ablate  = flag.Bool("ablations", false, "run the design-choice ablations")
		loads   = flag.Bool("loads", false, "measure the graph ingest paths (text vs SNP2 vs compressed SNP2)")
		ingest  = flag.Bool("ingest", false, "measure snapshot-epoch streaming commits against from-scratch rebuilds")
		sk      = flag.Bool("sketch", false, "measure the approximate-analytics tier (HyperANF, sampled closeness, landmark oracle) against the exact kernels")
		part    = flag.Bool("partition", false, "measure the parallel multilevel partitioner and the partition-blocked kernel layout")
		srv     = flag.Bool("serve", false, "load-test the serving tier: sustained qps and p50/p99 with and without request coalescing and the result cache")
		all     = flag.Bool("all", false, "run every experiment in paper order")
		scale   = flag.Float64("scale", 0.1, "instance scale relative to the paper (1 = full size)")
		k       = flag.Int("k", 32, "part count for Table 1")
		workers = flag.String("workers", "1,2,4,8,16,32", "comma-separated thread sweep for the figures")
		gnMaxN  = flag.Int("gn-maxn", 1200, "largest n for a full Girvan-Newman run in Table 2")
		seed    = flag.Int64("seed", 0, "generator seed (0 = default)")
		fast    = flag.Bool("fast", false, "shrink everything for a quick smoke run")
	)
	flag.Parse()

	cfg := bench.Config{
		Out:    os.Stdout,
		Scale:  *scale,
		K:      *k,
		GNMaxN: *gnMaxN,
		Seed:   *seed,
		Fast:   *fast,
	}
	for _, f := range strings.Split(*workers, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "snap-bench: bad -workers entry %q\n", f)
			os.Exit(2)
		}
		cfg.Workers = append(cfg.Workers, v)
	}

	ran := false
	if *all {
		bench.All(cfg)
		return
	}
	switch *table {
	case "":
	case "1":
		bench.Table1(cfg)
		ran = true
	case "2":
		bench.Table2(cfg)
		ran = true
	case "3":
		bench.Table3(cfg)
		ran = true
	default:
		fmt.Fprintf(os.Stderr, "snap-bench: unknown table %q\n", *table)
		os.Exit(2)
	}
	switch *figure {
	case "":
	case "2":
		bench.Figure2(cfg)
		ran = true
	case "3a":
		bench.Figure3a(cfg)
		ran = true
	case "3b":
		bench.Figure3b(cfg)
		ran = true
	default:
		fmt.Fprintf(os.Stderr, "snap-bench: unknown figure %q\n", *figure)
		os.Exit(2)
	}
	if *ablate {
		bench.Ablations(cfg)
		ran = true
	}
	if *loads {
		bench.Loads(cfg)
		ran = true
	}
	if *ingest {
		bench.Ingest(cfg)
		ran = true
	}
	if *sk {
		bench.Sketch(cfg)
		ran = true
	}
	if *part {
		bench.Partition(cfg)
		ran = true
	}
	if *srv {
		bench.Serve(cfg)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
