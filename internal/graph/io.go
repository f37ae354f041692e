package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"snap/internal/par"
)

// Edge-list text format: one edge per line, "u v" or "u v w", with '#'
// comment lines and an optional header comment recording n, m,
// directedness and, for weighted graphs, a "weighted" token, so a
// weighted graph with no edge lines still reads back weighted. This is
// the interchange format of the cmd/ tools.

// WriteEdgeList writes g in the text edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	if err := g.CheckOpen(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	kind := "undirected"
	if g.Directed() {
		kind = "directed"
	}
	if g.Weighted() {
		kind += " weighted"
	}
	fmt.Fprintf(bw, "# snap edge list: n=%d m=%d %s\n", g.NumVertices(), g.NumEdges(), kind)
	for _, e := range g.EdgeEndpoints() {
		if g.Weighted() {
			fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.W)
		} else {
			fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the text edge-list format. The vertex count is
// inferred as max endpoint + 1, or the header comment's n= value,
// whichever is larger.
//
// Parsing is sharded: the input is split into per-worker byte ranges
// aligned to line boundaries, each shard parses its lines into a local
// edge buffer, and the shards concatenate in file order — so edge ids,
// error line numbers, and the inferred header fields match a serial
// scan — before the parallel CSR builder assembles the graph.
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parseEdgeList(data, directed, par.Workers())
}

// edgeListShard is the result of parsing one byte range of an edge
// list: its edges in file order plus everything needed to stitch the
// shards back into a sequential-scan result.
type edgeListShard struct {
	edges    []Edge
	lines    int // total lines in the shard (for global line numbers)
	maxID    int32
	hasEdges bool
	headerN  int // largest n= header value seen, -1 if none
	directed bool
	weighted bool
	err      error
	errLine  int // 1-based line number within the shard
}

func parseEdgeList(data []byte, directed bool, workers int) (*Graph, error) {
	// Shard boundaries: even byte cuts advanced to the next newline, so
	// every line belongs to exactly one shard.
	if workers < 1 {
		workers = 1
	}
	if len(data) < 1<<16 {
		workers = 1
	}
	bounds := make([]int, 0, workers+1)
	bounds = append(bounds, 0)
	for w := 1; w < workers; w++ {
		cut := len(data) * w / workers
		if cut <= bounds[len(bounds)-1] {
			continue
		}
		nl := bytes.IndexByte(data[cut:], '\n')
		if nl < 0 {
			break
		}
		bounds = append(bounds, cut+nl+1)
	}
	bounds = append(bounds, len(data))

	shards := make([]edgeListShard, len(bounds)-1)
	par.ForEachN(len(shards), len(shards), func(i int) {
		shards[i] = parseShard(data[bounds[i]:bounds[i+1]])
	})

	// Stitch: earliest error wins, with its line number offset by the
	// preceding shards' line counts.
	n := 0
	weighted := false
	total := 0
	lineBase := 0
	for i := range shards {
		s := &shards[i]
		if s.err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineBase+s.errLine, s.err)
		}
		lineBase += s.lines
		if s.headerN > n {
			n = s.headerN
		}
		if s.hasEdges && int(s.maxID)+1 > n {
			n = int(s.maxID) + 1
		}
		directed = directed || s.directed
		weighted = weighted || s.weighted
		total += len(s.edges)
	}
	edges := make([]Edge, total)
	off := 0
	offs := make([]int, len(shards))
	for i := range shards {
		offs[i] = off
		off += len(shards[i].edges)
	}
	par.ForEachN(len(shards), len(shards), func(i int) {
		copy(edges[offs[i]:], shards[i].edges)
	})
	return Build(n, edges, BuildOptions{Directed: directed, Weighted: weighted})
}

func parseShard(data []byte) edgeListShard {
	s := edgeListShard{headerN: -1}
	for len(data) > 0 {
		var line []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			line, data = data, nil
		}
		s.lines++
		line = trimSpaceBytes(line)
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			hdr := string(line)
			if v, ok := headerField(hdr, "n="); ok && v > s.headerN {
				s.headerN = v
			}
			if strings.Contains(hdr, "directed") && !strings.Contains(hdr, "undirected") {
				s.directed = true
			}
			if strings.Contains(hdr, "weighted") && !strings.Contains(hdr, "unweighted") {
				s.weighted = true
			}
			continue
		}
		f0, rest := nextField(line)
		f1, rest := nextField(rest)
		f2, _ := nextField(rest)
		if f1 == nil {
			s.err = fmt.Errorf("want 'u v [w]', got %q", line)
			s.errLine = s.lines
			return s
		}
		u, err := parseVertexID(f0)
		if err != nil {
			s.err, s.errLine = err, s.lines
			return s
		}
		v, err := parseVertexID(f1)
		if err != nil {
			s.err, s.errLine = err, s.lines
			return s
		}
		e := Edge{U: u, V: v, W: 1}
		if f2 != nil {
			w, err := strconv.ParseFloat(string(f2), 64)
			if err == nil {
				err = checkWeight(w)
			}
			if err != nil {
				s.err, s.errLine = err, s.lines
				return s
			}
			e.W = w
			s.weighted = true
		}
		if e.U > s.maxID {
			s.maxID = e.U
		}
		if e.V > s.maxID {
			s.maxID = e.V
		}
		s.hasEdges = true
		s.edges = append(s.edges, e)
	}
	return s
}

// parseVertexID is a fast path for the base-10 int32 parse dominating
// edge-list ingestion; malformed tokens fall back to strconv for its
// canonical error message.
func parseVertexID(b []byte) (int32, error) {
	neg := false
	i := 0
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg = b[i] == '-'
		i++
	}
	var v int64
	start := i
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int64(d)
		if v > 1<<40 {
			break // defer overflow handling to strconv
		}
	}
	if i != len(b) || i == start || v > math.MaxInt32+1 ||
		(!neg && v > math.MaxInt32) {
		_, err := strconv.ParseInt(string(b), 10, 32)
		if err == nil {
			err = fmt.Errorf("invalid vertex id %q", b)
		}
		return 0, err
	}
	if neg {
		v = -v
	}
	return int32(v), nil
}

func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && isSpaceByte(b[i]) {
		i++
	}
	if i == len(b) {
		return nil, nil
	}
	j := i
	for j < len(b) && !isSpaceByte(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && isSpaceByte(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpaceByte(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func headerField(line, key string) (int, bool) {
	i := strings.Index(line, key)
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	if j == 0 {
		return 0, false
	}
	v, err := strconv.Atoi(rest[:j])
	if err != nil {
		return 0, false
	}
	return v, true
}
