// Command snap-gen generates synthetic graphs in the SNAP interchange
// formats.
//
// Usage:
//
//	snap-gen -type rmat -n 100000 -m 400000 -o graph.txt
//	snap-gen -type road -rows 300 -cols 300 -extra 0.2 -format snp2 -o road.snp2
//	snap-gen -type rmat -n 1048576 -m 8388608 -format snp2 -compress -o rmat.snp2
//	snap-gen -type planted -k 8 -csize 500 -pin 0.2 -pout 0.005 -o comm.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/graph/container"
)

func main() {
	var (
		typ      = flag.String("type", "rmat", "family: rmat | er | road | ws | planted | ba")
		n        = flag.Int("n", 10000, "vertex count (rmat, er, ws, ba)")
		m        = flag.Int("m", 40000, "edge count (rmat, er)")
		rows     = flag.Int("rows", 100, "mesh rows (road)")
		cols     = flag.Int("cols", 100, "mesh cols (road)")
		extra    = flag.Float64("extra", 0.1, "shortcut fraction (road)")
		kNear    = flag.Int("knear", 4, "ring neighbors (ws) / attachments (ba)")
		beta     = flag.Float64("beta", 0.1, "rewiring probability (ws)")
		k        = flag.Int("k", 4, "communities (planted)")
		csize    = flag.Int("csize", 100, "community size (planted)")
		pin      = flag.Float64("pin", 0.2, "intra-community edge probability (planted)")
		pout     = flag.Float64("pout", 0.01, "inter-community edge probability (planted)")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("o", "-", "output path ('-' = stdout)")
		format   = flag.String("format", "text", "output format: text | snp2")
		compress = flag.Bool("compress", false, "varint delta-compress adjacency (-format snp2)")
	)
	flag.Parse()

	var g *graph.Graph
	switch *typ {
	case "rmat":
		g = generate.RMAT(*n, *m, generate.DefaultRMAT(), *seed)
	case "er":
		g = generate.ErdosRenyi(*n, *m, *seed)
	case "road":
		g = generate.RoadMesh(*rows, *cols, *extra, *seed)
	case "ws":
		g = generate.WattsStrogatz(*n, *kNear, *beta, *seed)
	case "planted":
		g, _ = generate.PlantedPartition(*k, *csize, *pin, *pout, *seed)
	case "ba":
		g = generate.PreferentialAttachment(*n, *kNear, *seed)
	default:
		fmt.Fprintf(os.Stderr, "snap-gen: unknown -type %q\n", *typ)
		os.Exit(2)
	}

	var dst *os.File
	if *out == "-" {
		dst = os.Stdout
	} else {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snap-gen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		dst = f
	}
	var err error
	switch *format {
	case "text":
		err = graph.WriteEdgeList(dst, g)
	case "snp2":
		err = container.Encode(dst, g, container.Options{Compress: *compress})
	default:
		fmt.Fprintf(os.Stderr, "snap-gen: unknown -format %q\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "snap-gen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "snap-gen: wrote %v\n", g)
}
