package container

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"snap/internal/graph"
)

// equalGraphs reports the first difference between two graphs at the
// bit level (weights compared by bits via the raw slices).
func equalGraphs(t *testing.T, tag string, got, want *graph.Graph) {
	t.Helper()
	if got.Directed() != want.Directed() || got.NumEdges() != want.NumEdges() || got.Weighted() != want.Weighted() {
		t.Fatalf("%s: shape: directed %v/%v edges %d/%d weighted %v/%v", tag,
			got.Directed(), want.Directed(), got.NumEdges(), want.NumEdges(), got.Weighted(), want.Weighted())
	}
	if len(got.Offsets) != len(want.Offsets) {
		t.Fatalf("%s: offsets length %d want %d", tag, len(got.Offsets), len(want.Offsets))
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("%s: offsets[%d] = %d want %d", tag, i, got.Offsets[i], want.Offsets[i])
		}
	}
	if len(got.Adj) != len(want.Adj) || len(got.EID) != len(want.EID) {
		t.Fatalf("%s: arc arrays sized %d/%d want %d/%d", tag, len(got.Adj), len(got.EID), len(want.Adj), len(want.EID))
	}
	for i := range want.Adj {
		if got.Adj[i] != want.Adj[i] {
			t.Fatalf("%s: adj[%d] = %d want %d", tag, i, got.Adj[i], want.Adj[i])
		}
		if got.EID[i] != want.EID[i] {
			t.Fatalf("%s: eid[%d] = %d want %d", tag, i, got.EID[i], want.EID[i])
		}
	}
	for i := range want.W {
		if got.W[i] != want.W[i] {
			t.Fatalf("%s: w[%d] = %v want %v", tag, i, got.W[i], want.W[i])
		}
	}
}

// testGraphs builds the round-trip corpus: empty, singleton, isolated
// vertices (empty rows), a path, a clique row (dense), a hub star with
// neighbors below and above the hub id (negative first delta), a
// multigraph (zero gaps), and random graphs, across the directed x
// weighted matrix.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	out := map[string]*graph.Graph{}
	add := func(name string, n int, edges []graph.Edge, opt graph.BuildOptions) {
		g, err := graph.Build(n, edges, opt)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out[name] = g
	}
	add("empty", 0, nil, graph.BuildOptions{})
	add("singleton", 1, nil, graph.BuildOptions{})
	add("isolated", 5, []graph.Edge{{U: 1, V: 3, W: 2}}, graph.BuildOptions{Weighted: true})
	path := make([]graph.Edge, 99)
	for i := range path {
		path[i] = graph.Edge{U: int32(i), V: int32(i + 1), W: float64(i)}
	}
	add("path", 100, path, graph.BuildOptions{})
	add("path-directed-weighted", 100, path, graph.BuildOptions{Directed: true, Weighted: true})
	var clique []graph.Edge
	for u := int32(0); u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			clique = append(clique, graph.Edge{U: u, V: v, W: rng.Float64()})
		}
	}
	add("clique", 40, clique, graph.BuildOptions{Weighted: true})
	var star []graph.Edge
	for v := int32(0); v < 64; v++ {
		if v != 32 {
			star = append(star, graph.Edge{U: 32, V: v})
		}
	}
	add("star", 64, star, graph.BuildOptions{Directed: true})
	add("multi", 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 0, V: 1}, {U: 2, V: 3}},
		graph.BuildOptions{AllowMulti: true})
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			edges := make([]graph.Edge, 4000)
			for i := range edges {
				// Weights are finite and non-negative: Validate, which
				// the validating load runs, rejects any other.
				edges[i] = graph.Edge{U: rng.Int31n(800), V: rng.Int31n(800), W: math.Abs(rng.NormFloat64())}
			}
			name := "rand"
			if directed {
				name += "-directed"
			}
			if weighted {
				name += "-weighted"
			}
			add(name, 800, edges, graph.BuildOptions{Directed: directed, Weighted: weighted})
		}
	}
	return out
}

// TestRoundTripBytes pins Encode -> Decode as the identity for every
// corpus graph, across compressed x forceCopy, with full validation.
func TestRoundTripBytes(t *testing.T) {
	for name, g := range testGraphs(t) {
		// graph.Validate rejects parallel arcs (its symmetry probe
		// resolves by binary search), so the multigraph round-trips
		// without the full invariant check.
		validate := name != "multi"
		for _, compress := range []bool{false, true} {
			var buf bytes.Buffer
			if err := Encode(&buf, g, Options{Compress: compress}); err != nil {
				t.Fatalf("%s: encode(compress=%v): %v", name, compress, err)
			}
			for _, forceCopy := range []bool{false, true} {
				got, err := Decode(buf.Bytes(), LoadOptions{ForceCopy: forceCopy, Validate: validate})
				if err != nil {
					t.Fatalf("%s: decode(compress=%v, copy=%v): %v", name, compress, forceCopy, err)
				}
				equalGraphs(t, name, got, g)
			}
		}
	}
}

// TestRoundTripFile pins Save -> Load through the real mapping path,
// including Close (explicitly and doubled, for idempotence).
func TestRoundTripFile(t *testing.T) {
	dir := t.TempDir()
	for name, g := range testGraphs(t) {
		validate := name != "multi" // see TestRoundTripBytes
		for _, compress := range []bool{false, true} {
			p := filepath.Join(dir, name+".snp2")
			if err := Save(p, g, Options{Compress: compress}); err != nil {
				t.Fatalf("%s: save: %v", name, err)
			}
			got, err := Load(p, LoadOptions{Validate: validate})
			if err != nil {
				t.Fatalf("%s: load: %v", name, err)
			}
			equalGraphs(t, name, got, g)
			if err := got.Close(); err != nil {
				t.Fatalf("%s: close: %v", name, err)
			}
			if err := got.Close(); err != nil {
				t.Fatalf("%s: second close: %v", name, err)
			}

			// ForceCopy graphs must survive the mapping's release.
			cp, err := Load(p, LoadOptions{ForceCopy: true, Validate: validate})
			if err != nil {
				t.Fatalf("%s: load copy: %v", name, err)
			}
			equalGraphs(t, name, cp, g)
			if cp.Close() != nil {
				t.Fatalf("%s: copy close should be a no-op", name)
			}
		}
	}
}

// TestFormatChain exercises the full conversion chain of the cmd
// tools: text edge list -> SNP2 -> compressed SNP2 -> text, asserting
// the graph is unchanged at every hop.
func TestFormatChain(t *testing.T) {
	for name, g := range testGraphs(t) {
		if name == "multi" {
			continue // text round trip rebuilds, collapsing parallel edges
		}
		var text bytes.Buffer
		if err := graph.WriteEdgeList(&text, g); err != nil {
			t.Fatal(err)
		}
		g1, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()), g.Directed())
		if err != nil {
			t.Fatalf("%s: text: %v", name, err)
		}
		equalGraphs(t, name+" text", g1, g)

		var snp2 bytes.Buffer
		if err := Encode(&snp2, g1, Options{}); err != nil {
			t.Fatal(err)
		}
		g3, err := Decode(snp2.Bytes(), LoadOptions{Validate: true})
		if err != nil {
			t.Fatalf("%s: snp2: %v", name, err)
		}
		equalGraphs(t, name+" snp2", g3, g1)

		var csnp2 bytes.Buffer
		if err := Encode(&csnp2, g3, Options{Compress: true}); err != nil {
			t.Fatal(err)
		}
		g4, err := Decode(csnp2.Bytes(), LoadOptions{Validate: true})
		if err != nil {
			t.Fatalf("%s: compressed snp2: %v", name, err)
		}
		equalGraphs(t, name+" csnp2", g4, g3)

		text.Reset()
		if err := graph.WriteEdgeList(&text, g4); err != nil {
			t.Fatal(err)
		}
		g5, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()), g.Directed())
		if err != nil {
			t.Fatalf("%s: text again: %v", name, err)
		}
		equalGraphs(t, name+" text again", g5, g4)
	}
}

// TestVarintRoundTrip pins the codec primitives across the value
// range, including the 10-byte maximum and overflow rejection.
func TestVarintRoundTrip(t *testing.T) {
	var buf [12]byte
	cases := []uint64{0, 1, 127, 128, 300, 1 << 14, 1<<14 - 1, 1 << 21, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for _, want := range cases {
		n := putUvarint(buf[:], want)
		if int64(n) != uvarintLen(want) {
			t.Fatalf("uvarintLen(%d) = %d, encoder wrote %d", want, uvarintLen(want), n)
		}
		got, sz := uvarint(buf[:n])
		if got != want || sz != n {
			t.Fatalf("uvarint(%d): got %d size %d want size %d", want, got, sz, n)
		}
		if _, sz := uvarint(buf[:n-1]); sz != 0 {
			t.Fatalf("truncated uvarint(%d) accepted", want)
		}
	}
	overflow := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}
	if _, sz := uvarint(overflow); sz != 0 {
		t.Fatal("65-bit uvarint accepted")
	}
	for _, d := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("zigzag round trip %d -> %d", d, got)
		}
	}
}

// TestDecodeRejectsCorruption flips bytes in valid containers and
// requires Decode to error or produce a validating graph — never
// panic. (The fuzz target explores this space further.)
func TestDecodeRejectsCorruption(t *testing.T) {
	g := testGraphs(t)["rand-weighted"]
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Encode(&buf, g, Options{Compress: compress}); err != nil {
			t.Fatal(err)
		}
		valid := buf.Bytes()
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 2000; trial++ {
			data := bytes.Clone(valid)
			// Corrupt 1-8 bytes, biased toward the header page.
			for k := 0; k <= rng.Intn(8); k++ {
				i := rng.Intn(len(data))
				if rng.Intn(2) == 0 {
					i = rng.Intn(pageSize)
				}
				data[i] ^= byte(1 + rng.Intn(255))
			}
			// Sometimes truncate too.
			if rng.Intn(4) == 0 {
				data = data[:rng.Intn(len(data))]
			}
			if got, err := Decode(data, LoadOptions{ForceCopy: true, Validate: true}); err == nil {
				if verr := graph.Validate(got); verr != nil {
					t.Fatalf("compress=%v trial %d: decode accepted a graph failing Validate: %v", compress, trial, verr)
				}
			}
		}
	}
}

// TestLoadErrors pins the clean-error paths: missing file, short file,
// directory.
func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "absent.snp2"), LoadOptions{}); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	short := filepath.Join(dir, "short.snp2")
	if err := writeFileBytes(short, []byte("SNP2 but far too short")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(short, LoadOptions{}); err == nil {
		t.Fatal("loading a sub-header file succeeded")
	}
	if _, err := Load(dir, LoadOptions{}); err == nil {
		t.Fatal("loading a directory succeeded")
	}
}

func writeFileBytes(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
