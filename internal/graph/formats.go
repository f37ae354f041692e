package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Interchange with the partitioning ecosystem the paper compares
// against: the METIS/Chaco graph format (1-indexed adjacency lists)
// and the DIMACS edge format, plus GraphViz DOT export for small-graph
// visualization.

// WriteMETIS writes g in the METIS graph format: a header "n m [fmt]"
// followed by one line per vertex listing its (1-indexed) neighbors,
// with edge weights when the graph is weighted.
func WriteMETIS(w io.Writer, g *Graph) error {
	if g.Directed() {
		return fmt.Errorf("graph: METIS format requires an undirected graph")
	}
	bw := bufio.NewWriter(w)
	if g.Weighted() {
		fmt.Fprintf(bw, "%d %d 001\n", g.NumVertices(), g.NumEdges())
	} else {
		fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumEdges())
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		for a := lo; a < hi; a++ {
			if a > lo {
				fmt.Fprint(bw, " ")
			}
			if g.Weighted() {
				fmt.Fprintf(bw, "%d %g", g.Adj[a]+1, g.W[a])
			} else {
				fmt.Fprintf(bw, "%d", g.Adj[a]+1)
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadMETIS parses the METIS graph format (optionally with edge
// weights, fmt code 1 or 001, each finite and non-negative). Blank
// lines before the header are skipped; after it, every line but a %
// comment is a vertex, so a blank one is a vertex without neighbors.
func ReadMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var n, m int
	weighted := false
	lineNo := 0
	line, err := nextDataLine(sc, true, &lineNo)
	if err != nil {
		return nil, fmt.Errorf("graph: METIS: missing header: %v", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, fmt.Errorf("graph: METIS: bad header %q", line)
	}
	if n, err = strconv.Atoi(fields[0]); err != nil {
		return nil, err
	}
	if m, err = strconv.Atoi(fields[1]); err != nil {
		return nil, err
	}
	if n < 0 || m < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: METIS: bad header %q", line)
	}
	if len(fields) >= 3 {
		code := strings.TrimLeft(fields[2], "0")
		switch code {
		case "":
		case "1":
			weighted = true
		default:
			return nil, fmt.Errorf("graph: METIS: unsupported fmt %q (vertex weights not supported)", fields[2])
		}
	}
	// m sizes nothing: a header that lies must not allocate.
	var edges []Edge
	for v := 0; v < n; v++ {
		line, err := nextDataLine(sc, false, &lineNo)
		if err != nil {
			return nil, fmt.Errorf("graph: METIS: vertex %d: %v", v+1, err)
		}
		fs := strings.Fields(line)
		step := 1
		if weighted {
			step = 2
		}
		for i := 0; i+step-1 < len(fs); i += step {
			u, err := strconv.Atoi(fs[i])
			if err != nil {
				return nil, fmt.Errorf("graph: METIS: vertex %d: %v", v+1, err)
			}
			if u < 1 || u > n {
				return nil, fmt.Errorf("graph: METIS: vertex %d: neighbor %d out of range", v+1, u)
			}
			wgt := 1.0
			if weighted {
				if wgt, err = strconv.ParseFloat(fs[i+1], 64); err != nil {
					return nil, fmt.Errorf("graph: METIS: vertex %d: %v", v+1, err)
				}
				if err := checkWeight(wgt); err != nil {
					return nil, fmt.Errorf("graph: METIS: line %d (vertex %d): %w", lineNo, v+1, err)
				}
			}
			if u-1 > v { // each undirected edge appears twice; keep one
				edges = append(edges, Edge{U: int32(v), V: int32(u - 1), W: wgt})
			}
		}
	}
	return Build(n, edges, BuildOptions{Weighted: weighted})
}

// nextDataLine returns the next line that is not a % comment, and
// with skipBlank not a blank line either. *lineNo counts the lines
// scanned, so it holds the returned line's 1-based number.
func nextDataLine(sc *bufio.Scanner, skipBlank bool, lineNo *int) (string, error) {
	for sc.Scan() {
		*lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" && skipBlank || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// WriteDIMACS writes g in the DIMACS edge format ("p edge n m" header,
// "e u v" lines, 1-indexed).
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c snap graph %d vertices %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Fprintf(bw, "p edge %d %d\n", g.NumVertices(), g.NumEdges())
	for _, e := range g.EdgeEndpoints() {
		fmt.Fprintf(bw, "e %d %d\n", e.U+1, e.V+1)
	}
	return bw.Flush()
}

// ReadDIMACS parses the DIMACS edge format.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	n := -1
	var edges []Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if len(fields) < 4 {
				return nil, fmt.Errorf("graph: DIMACS line %d: bad problem line", lineNo)
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, err
			}
			if v < 0 || v > math.MaxInt32 {
				return nil, fmt.Errorf("graph: DIMACS line %d: vertex count %d out of range", lineNo, v)
			}
			n = v
		case "e", "a":
			if n < 0 {
				return nil, fmt.Errorf("graph: DIMACS line %d: edge before problem line", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: DIMACS line %d: bad edge line", lineNo)
			}
			u, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, err
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, err
			}
			if u < 1 || u > n || v < 1 || v > n {
				return nil, fmt.Errorf("graph: DIMACS line %d: endpoint out of range", lineNo)
			}
			edges = append(edges, Edge{U: int32(u - 1), V: int32(v - 1), W: 1})
		default:
			return nil, fmt.Errorf("graph: DIMACS line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: DIMACS: missing problem line")
	}
	return Build(n, edges, BuildOptions{})
}

// WriteDOT writes g in GraphViz DOT format, optionally coloring
// vertices by a community assignment (nil for none). Intended for
// small graphs.
func WriteDOT(w io.Writer, g *Graph, assign []int32) error {
	bw := bufio.NewWriter(w)
	name := "graph"
	sep := "--"
	if g.Directed() {
		name = "digraph"
		sep = "->"
	}
	fmt.Fprintf(bw, "%s snap {\n", name)
	if assign != nil {
		for v := 0; v < g.NumVertices(); v++ {
			fmt.Fprintf(bw, "  %d [label=\"%d\", colorscheme=set312, style=filled, fillcolor=%d];\n",
				v, v, int(assign[v])%12+1)
		}
	}
	for _, e := range g.EdgeEndpoints() {
		fmt.Fprintf(bw, "  %d %s %d;\n", e.U, sep, e.V)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
