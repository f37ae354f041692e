package container

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"snap/internal/generate"
	"snap/internal/graph"
)

func benchScale(b *testing.B) int {
	if s := os.Getenv("SNAP_BENCH_SCALE"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 || v > 28 {
			b.Fatalf("bad SNAP_BENCH_SCALE %q", s)
		}
		return v
	}
	if testing.Short() {
		return 14
	}
	return 18
}

// BenchmarkLoad compares every load path on one RMAT graph: text
// parse, mapped SNP2, and varint-compressed SNP2 (scale set by -short:
// 14, default 18; EXPERIMENTS.md records scale 18/20 runs via
// SNAP_BENCH_SCALE). Each sub-benchmark reports the on-disk artifact
// size as file-MB.
func BenchmarkLoad(b *testing.B) {
	scale := benchScale(b)
	g := generate.RMAT(1<<scale, 8<<scale, generate.DefaultRMAT(), 42)

	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	plain := filepath.Join(dir, "g.snp2")
	if err := Save(plain, g, Options{}); err != nil {
		b.Fatal(err)
	}
	compressed := filepath.Join(dir, "g.csnp2")
	if err := Save(compressed, g, Options{Compress: true}); err != nil {
		b.Fatal(err)
	}
	fileMB := func(path string) float64 {
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		return float64(st.Size()) / (1 << 20)
	}

	b.Run(fmt.Sprintf("rmat%d/text", scale), func(b *testing.B) {
		b.ReportMetric(float64(text.Len())/(1<<20), "file-MB")
		for i := 0; i < b.N; i++ {
			if _, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()), false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("rmat%d/snp2-mmap", scale), func(b *testing.B) {
		b.ReportMetric(fileMB(plain), "file-MB")
		for i := 0; i < b.N; i++ {
			lg, err := Load(plain, LoadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			lg.Close()
		}
	})
	b.Run(fmt.Sprintf("rmat%d/snp2-compressed", scale), func(b *testing.B) {
		b.ReportMetric(fileMB(compressed), "file-MB")
		for i := 0; i < b.N; i++ {
			lg, err := Load(compressed, LoadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			lg.Close()
		}
	})
}

// BenchmarkSave measures container writes (the one-time conversion
// cost a graph pays to become mappable).
func BenchmarkSave(b *testing.B) {
	scale := benchScale(b)
	g := generate.RMAT(1<<scale, 8<<scale, generate.DefaultRMAT(), 42)
	dir := b.TempDir()
	for _, compress := range []bool{false, true} {
		tag := "plain"
		if compress {
			tag = "compressed"
		}
		b.Run(fmt.Sprintf("rmat%d/%s", scale, tag), func(b *testing.B) {
			p := filepath.Join(dir, tag+".snp2")
			for i := 0; i < b.N; i++ {
				if err := Save(p, g, Options{Compress: compress}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMappedLoadAllocationsO1 pins the zero-copy claim: loading a
// mapped container allocates a constant few kilobytes (header parse,
// Graph struct, closer) regardless of graph size — while the sections
// it would otherwise copy span megabytes.
func TestMappedLoadAllocationsO1(t *testing.T) {
	g := generate.RMAT(1<<14, 8<<14, generate.DefaultRMAT(), 42)
	p := filepath.Join(t.TempDir(), "g.snp2")
	if err := Save(p, g, Options{}); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(p)

	// Warm up once (lazy runtime init), then measure.
	warm, err := Load(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lg, err := Load(p, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer lg.Close()
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > 1<<16 {
		t.Fatalf("mapped load allocated %d bytes (file is %d); expected O(1) (< 64 KiB)", allocated, st.Size())
	}
	if lg.NumVertices() != g.NumVertices() || lg.NumArcs() != g.NumArcs() {
		t.Fatalf("loaded shape %v differs from %v", lg, g)
	}
}
