// Command snap-convert converts graphs between the supported formats:
// the SNAP text edge list, the binary CSR container (SNP2, optionally
// varint delta-compressed; memory-mapped when read from a file), the
// METIS/Chaco graph format, the DIMACS edge format, and (write-only)
// GraphViz DOT. SNP2 also streams: on stdin/stdout it pipes between
// invocations.
//
// Usage:
//
//	snap-convert -i g.txt -from text -o g.metis -to metis
//	snap-convert -i g.metis -from metis -o g.snp2 -to snp2 -compress
//	snap-convert -i g.snp2 -from snp2 -o g.txt -to text
//	snap-gen -format snp2 | snap-convert -from snp2 -to metis
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"snap/internal/graph"
	"snap/internal/graph/container"
)

func main() {
	var (
		in       = flag.String("i", "-", "input path ('-' = stdin)")
		out      = flag.String("o", "-", "output path ('-' = stdout)")
		from     = flag.String("from", "text", "input format: text | snp2 | metis | dimacs")
		to       = flag.String("to", "text", "output format: text | snp2 | metis | dimacs | dot")
		directed = flag.Bool("directed", false, "treat text input as directed")
		compress = flag.Bool("compress", false, "varint delta-compress adjacency when -to snp2")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	if *from == "snp2" && *in != "-" {
		// A real file maps zero-copy; the graph stays valid for the
		// process lifetime, so the conversion below reads straight out
		// of the page cache.
		g, err = container.Load(*in, container.LoadOptions{})
	} else {
		var r io.Reader = os.Stdin
		if *in != "-" {
			f, oerr := os.Open(*in)
			if oerr != nil {
				fatal(oerr)
			}
			defer f.Close()
			r = f
		}
		switch *from {
		case "text":
			g, err = graph.ReadEdgeList(r, *directed)
		case "snp2":
			var data []byte
			if data, err = io.ReadAll(r); err == nil {
				g, err = container.Decode(data, container.LoadOptions{})
			}
		case "metis":
			g, err = graph.ReadMETIS(r)
		case "dimacs":
			g, err = graph.ReadDIMACS(r)
		default:
			fatal(fmt.Errorf("unknown -from %q", *from))
		}
	}
	if err != nil {
		fatal(err)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch *to {
	case "text":
		err = graph.WriteEdgeList(w, g)
	case "snp2":
		err = container.Encode(w, g, container.Options{Compress: *compress})
	case "metis":
		err = graph.WriteMETIS(w, g)
	case "dimacs":
		err = graph.WriteDIMACS(w, g)
	case "dot":
		err = graph.WriteDOT(w, g, nil)
	default:
		fatal(fmt.Errorf("unknown -to %q", *to))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "snap-convert: %v (%s -> %s)\n", g, *from, *to)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "snap-convert: %v\n", err)
	os.Exit(1)
}
