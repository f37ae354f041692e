package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/graph/container"
)

// Loads measures the graph ingest paths on one R-MAT instance: the
// text edge-list parse, the mapped SNP2 container, and the varint
// delta-compressed SNP2 container. For each it reports the on-disk
// artifact size, the best-of-three warm load time (page cache hot, the
// steady state of a repeated analysis workflow), the speedup over the
// text parse, and the heap allocated by the load — the mapped row's
// near-zero allocation is the zero-copy claim made concrete. This
// experiment has no counterpart in the paper's evaluation; it sizes the
// I/O layer added on top of it.
func Loads(cfg Config) {
	cfg.fill()
	w := cfg.Out
	n := int(float64(1<<20) * cfg.Scale)
	if n < 1<<12 {
		n = 1 << 12
	}
	m := 8 * n
	g := generate.RMAT(n, m, generate.DefaultRMAT(), cfg.Seed)
	fmt.Fprintf(w, "== Loads: ingest paths on RMAT n=%d m=%d (scale %.3g of 2^20 vertices) ==\n",
		g.NumVertices(), g.NumEdges(), cfg.Scale)

	dir, err := os.MkdirTemp("", "snap-loads-")
	if err != nil {
		fmt.Fprintf(w, "loads: %v\n", err)
		return
	}
	defer os.RemoveAll(dir)

	write := func(name string, save func(path string) error) string {
		p := filepath.Join(dir, name)
		if err := save(p); err != nil {
			fmt.Fprintf(w, "loads: write %s: %v\n", name, err)
			return ""
		}
		return p
	}
	toFile := func(fn func(f *os.File) error) func(string) error {
		return func(p string) error {
			f, err := os.Create(p)
			if err != nil {
				return err
			}
			if err := fn(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	rows := []struct {
		label string
		path  string
		load  func(path string) (*graph.Graph, error)
	}{
		{"text", write("g.txt", toFile(func(f *os.File) error { return graph.WriteEdgeList(f, g) })),
			func(p string) (*graph.Graph, error) {
				f, err := os.Open(p)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				return graph.ReadEdgeList(f, false)
			}},
		{"snp2 (mmap)", write("g.snp2", func(p string) error { return container.Save(p, g, container.Options{}) }),
			func(p string) (*graph.Graph, error) { return container.Load(p, container.LoadOptions{}) }},
		{"snp2 compressed", write("g.csnp2", func(p string) error { return container.Save(p, g, container.Options{Compress: true}) }),
			func(p string) (*graph.Graph, error) { return container.Load(p, container.LoadOptions{}) }},
	}

	fmt.Fprintf(w, "%-16s %10s %12s %10s %12s\n", "format", "file MB", "load s", "vs text", "alloc MB")
	var textSec float64
	for _, row := range rows {
		if row.path == "" {
			continue
		}
		st, err := os.Stat(row.path)
		if err != nil {
			fmt.Fprintf(w, "loads: %v\n", err)
			continue
		}
		best := time.Duration(1<<62 - 1)
		var allocated uint64
		for trial := 0; trial < 3; trial++ {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var lg *graph.Graph
			d := timed(func() { lg, err = row.load(row.path) })
			runtime.ReadMemStats(&after)
			if err != nil {
				fmt.Fprintf(w, "loads: load %s: %v\n", row.label, err)
				lg = nil
				break
			}
			if lg.NumVertices() != g.NumVertices() || lg.NumArcs() != g.NumArcs() {
				fmt.Fprintf(w, "loads: %s shape mismatch: %v vs %v\n", row.label, lg, g)
			}
			lg.Close()
			if d < best {
				best = d
				allocated = after.TotalAlloc - before.TotalAlloc
			}
		}
		if err != nil {
			continue
		}
		sec := seconds(best)
		if row.label == "text" {
			textSec = sec
		}
		speedup := "-"
		if textSec > 0 && sec > 0 {
			speedup = fmt.Sprintf("%.1fx", textSec/sec)
		}
		fmt.Fprintf(w, "%-16s %10.1f %12.4f %10s %12.3f\n",
			row.label, float64(st.Size())/(1<<20), sec, speedup, float64(allocated)/(1<<20))
	}
	fmt.Fprintln(w)
}
