package sketch

import (
	"math"
	"runtime"
	"testing"

	"snap/internal/bfs"
	"snap/internal/generate"
	"snap/internal/graph"
)

// --- exact oracles ---------------------------------------------------

// exactNF computes the exact neighborhood function by all-sources BFS:
// nf[t] = number of ordered pairs (u, v), self-pairs included, with
// d(u, v) <= t.
func exactNF(g *graph.Graph) []float64 {
	n := g.NumVertices()
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	var hist []int64
	bfs.MultiSourceWorkspace(g, sources, -1, 1, func(_, _ int, ws *bfs.Workspace) {
		for _, v := range ws.Order() {
			d := int(ws.Dist(v))
			for len(hist) <= d {
				hist = append(hist, 0)
			}
			hist[d]++
		}
	})
	nf := make([]float64, len(hist))
	acc := int64(0)
	for t, c := range hist {
		acc += c
		nf[t] = float64(acc)
	}
	return nf
}

func exactAvgPath(nf []float64) float64 { return anfAvgPath(nf) }

func exactEffDiam(nf []float64, q float64) float64 { return effectiveDiameter(nf, q) }

func buildEdges(t testing.TB, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.Build(n, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pathGraph(t testing.TB, n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	return buildEdges(t, n, edges)
}

func starGraph(t testing.TB, n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: 0, V: int32(i)})
	}
	return buildEdges(t, n, edges)
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// --- property suite ---------------------------------------------------

// TestANFMatchesExactOracle drives the sketch against the exact BFS
// neighborhood function on four graph families. The derived statistics
// (average path length, effective diameter) must sit within the
// advertised error on at least 95% of seeds — they are ratios of NF
// values, so the HLL's correlated multiplicative error largely
// cancels; the raw NF tail gets the per-counter Gaussian bound.
func TestANFMatchesExactOracle(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", pathGraph(t, 200)},
		{"star", starGraph(t, 256)},
		{"rmat", generate.RMAT(512, 2048, generate.DefaultRMAT(), 3)},
		{"er", generate.ErdosRenyi(512, 2048, 4)},
	}
	const seeds = 20
	for _, fam := range families {
		exact := exactNF(fam.g)
		wantAvg := exactAvgPath(exact)
		wantEff := exactEffDiam(exact, 0.9)
		// Per-counter HLL std at R=256 is 1.04/16 = 6.5%; three sigmas
		// for the raw tail, two for the ratio statistics. On small-world
		// graphs the correlated multiplicative error mostly cancels in
		// the ratios and observed errors sit far below these; mesh-like
		// graphs (the path here) realize the full per-counter sigma —
		// see DESIGN.md §5i's error model.
		const tailBound, statBound = 0.195, 0.13
		pass := 0
		for seed := int64(1); seed <= seeds; seed++ {
			r := ANF(fam.g, ANFOptions{Registers: 256, Seed: seed})
			ok := relErr(r.NF[len(r.NF)-1], exact[len(exact)-1]) <= tailBound &&
				relErr(r.AvgPathLength, wantAvg) <= statBound &&
				math.Abs(r.EffectiveDiameter-wantEff) <= statBound*math.Max(wantEff, 1)
			if ok {
				pass++
			}
		}
		if pass < int(0.95*seeds) {
			t.Errorf("%s: only %d/%d seeds within bounds (want >= %d)", fam.name, pass, seeds, int(0.95*seeds))
		}
	}
}

// TestANFReachMatchesComponentSizes pins the per-vertex neighborhood
// sizes on a two-component graph: every vertex's Reach must estimate
// its component's size.
func TestANFReachMatchesComponentSizes(t *testing.T) {
	// Component A: clique of 6 (vertices 0-5); component B: path of 94.
	var edges []graph.Edge
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(j)})
		}
	}
	for i := 6; i < 99; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	g := buildEdges(t, 100, edges)
	r := ANF(g, ANFOptions{Registers: 256, Seed: 1})
	for v := 0; v < 6; v++ {
		if relErr(r.Reach[v], 6) > 0.25 {
			t.Fatalf("clique vertex %d: reach %.2f, want ~6", v, r.Reach[v])
		}
	}
	for v := 6; v < 100; v++ {
		if relErr(r.Reach[v], 94) > 0.25 {
			t.Fatalf("path vertex %d: reach %.2f, want ~94", v, r.Reach[v])
		}
	}
}

// TestANFWorkerInvariance pins the determinism contract: NF, Reach,
// and the derived statistics are bit-identical at every worker count.
func TestANFWorkerInvariance(t *testing.T) {
	graphs := []*graph.Graph{
		generate.RMAT(1000, 4000, generate.DefaultRMAT(), 5),
		generate.ErdosRenyi(777, 2000, 6),
		pathGraph(t, 300),
	}
	counts := []int{1, 2, 3, runtime.NumCPU() + 2}
	for gi, g := range graphs {
		base := ANF(g, ANFOptions{Seed: 9, Workers: 1})
		for _, w := range counts[1:] {
			got := ANF(g, ANFOptions{Seed: 9, Workers: w})
			if len(got.NF) != len(base.NF) {
				t.Fatalf("graph %d workers %d: %d sweeps vs %d", gi, w, len(got.NF), len(base.NF))
			}
			for i := range base.NF {
				if got.NF[i] != base.NF[i] {
					t.Fatalf("graph %d workers %d: NF[%d] = %v, want %v (bitwise)", gi, w, i, got.NF[i], base.NF[i])
				}
			}
			for v := range base.Reach {
				if got.Reach[v] != base.Reach[v] {
					t.Fatalf("graph %d workers %d: Reach[%d] differs", gi, w, v)
				}
			}
			if got.EffectiveDiameter != base.EffectiveDiameter || got.AvgPathLength != base.AvgPathLength {
				t.Fatalf("graph %d workers %d: derived stats differ", gi, w)
			}
		}
	}
}

// TestANFWorkspaceReuseMatchesFresh runs one workspace across graphs
// of different sizes and register widths; every answer must equal a
// fresh workspace's.
func TestANFWorkspaceReuseMatchesFresh(t *testing.T) {
	ws := new(ANFWorkspace)
	runs := []struct {
		g   *graph.Graph
		opt ANFOptions
	}{
		{generate.RMAT(600, 2400, generate.DefaultRMAT(), 7), ANFOptions{Seed: 1}},
		{pathGraph(t, 50), ANFOptions{Seed: 2, Registers: 128}},
		{generate.ErdosRenyi(900, 3000, 8), ANFOptions{Seed: 3, Registers: 16}},
		{starGraph(t, 33), ANFOptions{Seed: 4}},
	}
	for i, run := range runs {
		got := ws.Run(run.g, run.opt)
		want := ANF(run.g, run.opt)
		if len(got.NF) != len(want.NF) {
			t.Fatalf("run %d: sweep counts differ", i)
		}
		for j := range want.NF {
			if got.NF[j] != want.NF[j] {
				t.Fatalf("run %d: NF[%d] reuse mismatch", i, j)
			}
		}
		for v := range want.Reach {
			if got.Reach[v] != want.Reach[v] {
				t.Fatalf("run %d: Reach[%d] reuse mismatch", i, v)
			}
		}
	}
}

// TestANFZeroAllocSteadyState pins the warm-workspace allocation
// contract of the serial arm.
func TestANFZeroAllocSteadyState(t *testing.T) {
	g := generate.RMAT(2048, 8192, generate.DefaultRMAT(), 11)
	ws := new(ANFWorkspace)
	opt := ANFOptions{Seed: 1, Workers: 1}
	ws.Run(g, opt) // warm
	ws.Run(g, opt)
	if allocs := testing.AllocsPerRun(5, func() { ws.Run(g, opt) }); allocs != 0 {
		t.Fatalf("warm serial ANF run allocates %.0f times, want 0", allocs)
	}
}

// TestANFStatsDescribeTheRun checks the per-sweep record against what
// the kernel must have done, and that asking for it changes nothing and
// allocates nothing.
func TestANFStatsDescribeTheRun(t *testing.T) {
	g := generate.RMAT(2048, 8192, generate.DefaultRMAT(), 11)
	n := int64(g.NumVertices())
	for _, workers := range []int{1, 3} {
		ws := new(ANFWorkspace)
		want := ANF(g, ANFOptions{Seed: 1, Workers: workers})
		var st ANFStats
		got := ws.Run(g, ANFOptions{Seed: 1, Workers: workers, Stats: &st})
		for i := range want.NF {
			if got.NF[i] != want.NF[i] {
				t.Fatalf("workers=%d: NF[%d] changed by Stats", workers, i)
			}
		}
		if st.Sweeps != got.Sweeps+1 {
			t.Fatalf("workers=%d: %d sweeps recorded, want %d (the run reached the fixpoint)", workers, st.Sweeps, got.Sweeps+1)
		}
		first := st.Sweep[0]
		if first.Sparse || first.Rows != n || first.Unions != int64(g.NumArcs()) {
			t.Fatalf("workers=%d: first sweep %+v, want dense over %d rows and %d arcs", workers, first, n, g.NumArcs())
		}
		sparse := false
		for i := 0; i < st.Sweeps; i++ {
			s := st.Sweep[i]
			sparse = sparse || s.Sparse
			if !s.Sparse && s.Rows != n {
				t.Fatalf("workers=%d sweep %d: dense sweep visited %d rows of %d", workers, i, s.Rows, n)
			}
			if s.Changed > s.Rows || s.Words < s.Changed || s.Unions < s.Changed {
				t.Fatalf("workers=%d sweep %d: inconsistent %+v", workers, i, s)
			}
		}
		if last := st.Sweep[st.Sweeps-1]; last.Changed != 0 || last.Words != 0 {
			t.Fatalf("workers=%d: fixpoint sweep grew %+v", workers, last)
		}
		if !sparse {
			t.Fatalf("workers=%d: no sweep of a converging R-MAT run went sparse", workers)
		}
	}
	ws := new(ANFWorkspace)
	var st ANFStats
	opt := ANFOptions{Seed: 1, Workers: 1, Stats: &st}
	ws.Run(g, opt)
	if allocs := testing.AllocsPerRun(5, func() { ws.Run(g, opt) }); allocs != 0 {
		t.Fatalf("warm serial ANF run with Stats allocates %.0f times, want 0", allocs)
	}
	// A directed graph has no reverse adjacency to push along: every
	// sweep scans all rows.
	dg, err := graph.Build(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}},
		graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	ANF(dg, ANFOptions{Stats: &st})
	for i := 0; i < st.Sweeps; i++ {
		if st.Sweep[i].Sparse {
			t.Fatalf("directed sweep %d went sparse", i)
		}
	}
}

// TestANFPathStatistics checks the closed-form path-graph answers:
// average distance (n+1)/3 and diameter n-1.
func TestANFPathStatistics(t *testing.T) {
	const n = 101
	g := pathGraph(t, n)
	r := ANF(g, ANFOptions{Registers: 256, Seed: 1})
	wantAvg := float64(n+1) / 3
	if relErr(r.AvgPathLength, wantAvg) > 0.08 {
		t.Fatalf("path avg = %.3f, want %.3f +-8%%", r.AvgPathLength, wantAvg)
	}
	if r.DiameterEstimate < n-1-5 || r.DiameterEstimate > n-1 {
		t.Fatalf("path diameter estimate = %d, want ~%d", r.DiameterEstimate, n-1)
	}
	if r.Sweeps > n-1 {
		t.Fatalf("path converged after %d sweeps, diameter is %d", r.Sweeps, n-1)
	}
}

// TestANFDirected pins the ordered-pair semantics on a directed path
// 0 -> 1 -> 2 -> 3: NF grows toward exactly 10 reachable pairs.
func TestANFDirected(t *testing.T) {
	g, err := graph.Build(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}},
		graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	r := ANF(g, ANFOptions{Registers: 256, Seed: 1})
	if relErr(r.NF[len(r.NF)-1], 10) > 0.2 {
		t.Fatalf("directed path NF tail = %.2f, want ~10", r.NF[len(r.NF)-1])
	}
	if r.DiameterEstimate != 3 {
		t.Fatalf("directed path diameter estimate = %d, want 3", r.DiameterEstimate)
	}
}

// TestANFMaxSweeps bounds the level loop.
func TestANFMaxSweeps(t *testing.T) {
	g := pathGraph(t, 100)
	r := ANF(g, ANFOptions{Seed: 1, MaxSweeps: 5})
	if r.Sweeps != 5 || len(r.NF) != 6 {
		t.Fatalf("MaxSweeps=5: got %d sweeps, %d NF entries", r.Sweeps, len(r.NF))
	}
}

// TestANFSeedZeroIsDefault pins the unified seed contract: seed 0 and
// DefaultSeed are the same run, and a different seed really changes
// the registers.
func TestANFSeedZeroIsDefault(t *testing.T) {
	g := generate.RMAT(400, 1600, generate.DefaultRMAT(), 13)
	zero := ANF(g, ANFOptions{Seed: 0})
	def := ANF(g, ANFOptions{Seed: DefaultSeed})
	for i := range zero.NF {
		if zero.NF[i] != def.NF[i] {
			t.Fatalf("seed 0 differs from DefaultSeed at NF[%d]", i)
		}
	}
	other := ANF(g, ANFOptions{Seed: 12345})
	same := len(other.NF) == len(zero.NF)
	if same {
		for i := range zero.NF {
			if zero.NF[i] != other.NF[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 12345 produced bitwise-identical NF to the default seed")
	}
}

// TestANFEmptyAndTiny covers the degenerate shapes.
func TestANFEmptyAndTiny(t *testing.T) {
	empty, err := graph.Build(0, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := ANF(empty, ANFOptions{})
	if len(r.NF) != 0 || r.AvgPathLength != 0 || r.EffectiveDiameter != 0 {
		t.Fatalf("empty graph: %+v", r)
	}
	isolated, err := graph.Build(5, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r = ANF(isolated, ANFOptions{})
	if r.Sweeps != 0 || r.AvgPathLength != 0 {
		t.Fatalf("isolated vertices: %+v", r)
	}
	if relErr(r.NF[0], 5) > 0.2 {
		t.Fatalf("isolated NF[0] = %.2f, want ~5", r.NF[0])
	}
}

// TestMaxWordBytes drives the SWAR byte-max against a scalar oracle
// over the register value range.
func TestMaxWordBytes(t *testing.T) {
	rng := NewRNG(1)
	for trial := 0; trial < 10000; trial++ {
		var x, y, want uint64
		for b := 0; b < 8; b++ {
			xb := uint64(rng.Intn(0x62)) // register values are < 0x62
			yb := uint64(rng.Intn(0x62))
			x |= xb << (b * 8)
			y |= yb << (b * 8)
			m := xb
			if yb > m {
				m = yb
			}
			want |= m << (b * 8)
		}
		if got := maxWordBytes(x, y); got != want {
			t.Fatalf("maxWordBytes(%#x, %#x) = %#x, want %#x", x, y, got, want)
		}
	}
}

// scalarUnion is the per-byte oracle for unionRowsSum: the lane-wise
// max of the two rows and the number of words in which it differs from
// dst.
func scalarUnion(dst, src []uint64) (out []uint64, words int) {
	out = make([]uint64, len(dst))
	for i := range dst {
		for s := uint(0); s < 64; s += 8 {
			x, y := (dst[i]>>s)&0xff, (src[i]>>s)&0xff
			out[i] |= max(x, y) << s
		}
		if out[i] != dst[i] {
			words++
		}
	}
	return out, words
}

// TestUnionRowsSumMatchesScan drives the union against a scalar per-byte
// max, and its incremental estimator maintenance against the
// from-scratch row scan: the registers and grown-word count must equal
// the oracle's, the maintained zero count must equal rowSummary's
// exactly, and the maintained sum must equal it within ulp-scale
// round-off (the two accumulate in different orders). Rows are random,
// equal, or differ by a single grown lane.
func TestUnionRowsSumMatchesScan(t *testing.T) {
	p := makeParams(64)
	rng := NewRNG(3)
	randomRow := func(k int) []uint64 {
		r := make([]uint64, p.words)
		for i := 0; i < k; i++ {
			hllInsert(r, mix64(uint64(rng.Int63())), p)
		}
		return r
	}
	for trial := 0; trial < 600; trial++ {
		a := randomRow(rng.Intn(80))
		var b []uint64
		switch trial % 3 {
		case 0:
			b = randomRow(rng.Intn(80))
		case 1:
			b = append([]uint64(nil), a...)
		case 2:
			b = append([]uint64(nil), a...)
			lane := uint(rng.Intn(p.regs))
			w, s := lane/8, (lane%8)*8
			if r := (b[w] >> s) & 0xff; r < 60 {
				b[w] = b[w]&^(0xff<<s) | (r+1+uint64(rng.Intn(int(60-r))))<<s
			}
		}
		want, wantWords := scalarUnion(a, b)
		got := append([]uint64(nil), a...)
		sum, zeros := rowSummary(got, pow2neg)
		dSum, dZeros, words := unionRowsSum(got, b, pow2neg)
		if words != wantWords {
			t.Fatalf("trial %d: %d words grew, want %d", trial, words, wantWords)
		}
		if trial%3 == 1 && words != 0 {
			t.Fatalf("trial %d: union of equal rows grew %d words", trial, words)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: word %d = %#x, want %#x", trial, i, got[i], want[i])
			}
		}
		wantSum, wantZeros := rowSummary(got, pow2neg)
		if zeros+dZeros != wantZeros {
			t.Fatalf("trial %d: zeros %d, want %d", trial, zeros+dZeros, wantZeros)
		}
		if got := sum + dSum; math.Abs(got-wantSum) > 1e-12*math.Max(wantSum, 1) {
			t.Fatalf("trial %d: sum %v, want %v", trial, got, wantSum)
		}
	}
}

// TestHLLEstimateAccuracy checks the raw estimator against known set
// sizes across the register range.
func TestHLLEstimateAccuracy(t *testing.T) {
	for _, regs := range []int{16, 64, 256} {
		p := makeParams(regs)
		for _, size := range []int{1, 10, 100, 10000} {
			row := make([]uint64, p.words)
			seedMix := mix64(uint64(DefaultSeed))
			for i := 0; i < size; i++ {
				hllInsert(row, mix64(uint64(i)^seedMix), p)
			}
			sum, zeros := rowSummary(row, pow2neg)
			est := estimateFrom(sum, zeros, p)
			bound := 3 * 1.04 / math.Sqrt(float64(p.regs))
			if relErr(est, float64(size)) > math.Max(bound, 0.05) {
				t.Errorf("R=%d size=%d: est %.1f (err %.1f%%)", regs, size, est, 100*relErr(est, float64(size)))
			}
		}
	}
}
