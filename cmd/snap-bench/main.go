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
		all     = flag.Bool("all", false, "run every experiment in paper order")
		scale   = flag.Float64("scale", 0.1, "instance scale relative to the paper (1 = full size)")
		k       = flag.Int("k", 32, "part count for Table 1")
		workers = flag.String("workers", "1,2,4,8,16,32", "comma-separated thread sweep for the figures")
		gnMaxN  = flag.Int("gn-maxn", 1200, "largest n for a full Girvan-Newman run in Table 2")
		seed    = flag.Int64("seed", 0, "generator seed (0 = default)")
	)
	flag.Parse()

	cfg := bench.Config{
		Out:    os.Stdout,
		Scale:  *scale,
		K:      *k,
		GNMaxN: *gnMaxN,
		Seed:   *seed,
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
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
