package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"snap"
)

// analyzeFixture is the session script: what an analyst does with one
// graph through the snap facade, in four stages.
//
//	load     ReadEdgeList + Build + WriteContainer + MapBinary/Close
//	traverse BFS x24 + DeltaStepping x6 (weighted twin) + ConnectedComponents x4
//	rank     PageRank + ApproxNeighborhood{MaxSweeps:16} + SampledCloseness{Samples:32}
//	cluster  Louvain + Partition{K:32}
type analyzeFixture struct {
	cfg   config
	kind  string
	cnt   counts
	g, gw *snap.Graph
	text  []byte      // g as an edge-list file, for ReadEdgeList
	edges []snap.Edge // g as an edge slice, for Build
	path  string      // SNP2 container written and mapped by every session

	lccArcs  int64
	bfsSrc   []int32
	ssspSrc  []int32
	bfsLat   []time.Duration
	ssspLat  []time.Duration
	distBuf  []time.Duration
	segBuf   []time.Duration // duration of every layer call of the session, in order
	res      sessionResults
	pinned   *sessionPins // values that must repeat bit for bit on every round
	wantHop  [][]int32
	wantDist [][]float64
	wantComp []int32
	wantPR   []float64
}

// sessionResults holds one session's answers until the clock stops.
type sessionResults struct {
	read, built      *snap.Graph
	mappedN, mappedM int
	bfs              []snap.BFSResult
	sssp             []snap.SSSPResult
	comps            []snap.Components
	pagerank         []float64
	anf              snap.ANFResult
	closeness        snap.SampledClosenessResult
	louvain          snap.Clustering
	kway             snap.PartitionResult
	err              error
}

type sessionPins struct {
	q, effDiam, closeSum, balance float64
	communities                   int
	cut                           int64
}

const kwayParts = 32

func setupAnalyze(kind string) func(cfg config) fixture {
	return func(cfg config) fixture {
		f := &analyzeFixture{cfg: cfg, kind: kind, cnt: countsAt(cfg.scale)}
		f.g, f.gw = makeGraph(kind, cfg, true)
		var buf bytes.Buffer
		if err := snap.WriteEdgeList(&buf, f.g); err != nil {
			panic(err)
		}
		f.text = buf.Bytes()
		f.edges = f.g.EdgeEndpoints()
		f.path = filepath.Join(cfg.outDir, "analyze-"+kind+".snp")

		var lcc []int32
		f.wantComp, _, lcc = oracleComponents(adjOf(f.g))
		for _, v := range lcc {
			f.lccArcs += int64(f.g.Degree(v))
		}
		rng := rand.New(rand.NewSource(cfg.seed + 2))
		f.bfsSrc = drawFrom(rng, lcc, f.cnt.BFS)
		f.ssspSrc = drawFrom(rng, lcc, f.cnt.SSSP)
		f.bfsLat = make([]time.Duration, len(f.bfsSrc))
		f.ssspLat = make([]time.Duration, len(f.ssspSrc))
		f.distBuf = make([]time.Duration, 0, len(f.bfsSrc)+len(f.ssspSrc))
		f.segBuf = make([]time.Duration, 0, len(f.bfsSrc)+len(f.ssspSrc)+f.cnt.Components+9)
		f.res.bfs = make([]snap.BFSResult, len(f.bfsSrc))
		f.res.sssp = make([]snap.SSSPResult, len(f.ssspSrc))
		f.res.comps = make([]snap.Components, f.cnt.Components)
		return f
	}
}

func (f *analyzeFixture) oracles() {
	a := adjOf(f.g)
	for _, s := range f.bfsSrc {
		dist := make([]int32, a.n())
		oracleBFS(a, s, dist)
		f.wantHop = append(f.wantHop, dist)
	}
	for _, s := range f.ssspSrc {
		dist, _ := oracleDijkstra(adjOf(f.gw), s)
		f.wantDist = append(f.wantDist, dist)
	}
	f.wantPR = oraclePageRank(a)
}

func (f *analyzeFixture) prepare() {}
func (f *analyzeFixture) close()   { os.Remove(f.path) }

func (f *analyzeFixture) round(trs [clients]*tracer) roundOut {
	tr, r, g := trs[0], &f.res, f.g
	fail := func(err error) {
		if err != nil && r.err == nil {
			r.err = err
		}
	}
	// call runs one layer call inside a span and returns its duration;
	// the fixture keeps the duration itself because the untraced run
	// needs the distance-operation latencies too.
	op := int32(0)
	call := func(name string, stage int32, fn func()) time.Duration {
		op++
		id := tr.begin(name, stage, op, true)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		tr.end(id)
		f.segBuf = append(f.segBuf, d)
		return d
	}
	r.err, f.segBuf = nil, f.segBuf[:0]
	start := time.Now()
	root := tr.begin("session", -1, 0, false)

	st := tr.begin("stage.load", root, 0, false)
	call("graph.read_text", st, func() {
		var err error
		r.read, err = snap.ReadEdgeList(bytes.NewReader(f.text), false)
		fail(err)
	})
	call("graph.build", st, func() {
		var err error
		r.built, err = snap.Build(g.NumVertices(), f.edges, snap.BuildOptions{})
		fail(err)
	})
	call("container.write", st, func() { fail(snap.WriteContainer(f.path, g, snap.ContainerOptions{})) })
	call("container.map", st, func() {
		m, err := snap.MapBinary(f.path)
		if fail(err); err == nil {
			r.mappedN, r.mappedM = m.NumVertices(), m.NumEdges()
			fail(m.Close())
		}
	})
	tr.end(st)
	loaded := time.Now()

	st = tr.begin("stage.traverse", root, 0, false)
	for i, s := range f.bfsSrc {
		f.bfsLat[i] = call("bfs.run", st, func() { r.bfs[i] = snap.BFS(g, s) })
	}
	for i, s := range f.ssspSrc {
		f.ssspLat[i] = call("sssp.run", st, func() { r.sssp[i] = snap.DeltaStepping(f.gw, s, snap.DeltaSteppingOptions{}) })
	}
	for i := range r.comps {
		call("components.run", st, func() { r.comps[i] = snap.ConnectedComponents(g) })
	}
	tr.end(st)
	traversed := time.Now()

	st = tr.begin("stage.rank", root, 0, false)
	call("centrality.pagerank", st, func() { r.pagerank = snap.PageRank(g, snap.PageRankOptions{}) })
	call("sketch.anf", st, func() { r.anf = snap.ApproxNeighborhood(g, snap.ANFOptions{MaxSweeps: 16}) })
	call("sketch.closeness", st, func() { r.closeness = snap.SampledCloseness(g, snap.SampledClosenessOptions{Samples: 32}) })
	tr.end(st)
	ranked := time.Now()

	st = tr.begin("stage.cluster", root, 0, false)
	call("community.louvain", st, func() { r.louvain = snap.Louvain(g, snap.LouvainOptions{}) })
	call("partition.kway", st, func() {
		var err error
		r.kway, err = snap.Partition(g, snap.PartitionOptions{K: kwayParts})
		fail(err)
	})
	tr.end(st)
	tr.end(root)
	end := time.Now()

	f.distBuf = append(append(f.distBuf[:0], f.bfsLat...), f.ssspLat...)
	return roundOut{
		wall: end.Sub(start), segs: f.segBuf, ops: 1, dist: f.distBuf,
		vals: map[string]float64{
			"load_s":     loaded.Sub(start).Seconds(),
			"traverse_s": traversed.Sub(loaded).Seconds(),
			"rank_s":     ranked.Sub(traversed).Seconds(),
			"cluster_s":  end.Sub(ranked).Seconds(),
			"bfs.mteps":  float64(f.lccArcs) / us(medianDur(f.bfsLat)),
			"sssp.mteps": float64(f.lccArcs) / us(medianDur(f.ssspLat)),
		},
	}
}

func medianDur(d []time.Duration) time.Duration { return percentile(sortedCopy(d), 0.5) }

// Quality limits: a clustering or partition outside these is wrong no
// matter how fast it was found. The modularity floor and the cut
// ceiling (a share of the edges) are per graph family and hold for
// every seed; the balance ceiling is the partitioner's 5% allowance.
var qualityLimits = map[string]struct{ minQ, maxCutShare float64 }{
	"rmat": {minQ: 0.20, maxCutShare: 0.85},
	"road": {minQ: 0.85, maxCutShare: 0.08},
}

const maxBalance = 1.05 + 1e-9

func (f *analyzeFixture) verify(out *roundOut) {
	r, g, a := &f.res, f.g, adjOf(f.g)
	expect := func(ok bool, format string, args ...any) {
		out.checked++
		if !ok {
			out.fails.add(fmt.Errorf(format, args...))
		}
	}
	if f.cfg.corrupt {
		r.bfs[0].Dist[f.bfsSrc[0]]++
	}
	sameCSR := func(h *snap.Graph) bool {
		return h != nil && slices.Equal(h.Offsets, g.Offsets) && slices.Equal(h.Adj, g.Adj)
	}
	expect(r.err == nil, "session: %v", r.err)
	expect(sameCSR(r.read), "load: ReadEdgeList graph differs from the generated one")
	expect(sameCSR(r.built), "load: Build graph differs from the generated one")
	expect(r.mappedN == g.NumVertices() && r.mappedM == g.NumEdges(), "load: mapped container has n=%d m=%d", r.mappedN, r.mappedM)
	levels := 0
	for i, res := range r.bfs {
		expect(slices.Equal(res.Dist, f.wantHop[i]), "bfs src=%d: distances differ from the queue BFS", f.bfsSrc[i])
		levels += int(slices.Max(f.wantHop[i])) + 1
	}
	for i, res := range r.sssp {
		expect(slices.Equal(res.Dist, f.wantDist[i]), "sssp src=%d: distances differ from Dijkstra", f.ssspSrc[i])
	}
	for _, c := range r.comps {
		expect(samePartition(c.Comp, f.wantComp), "components: labeling differs from the oracle")
	}
	err := checkPageRank(r.pagerank, f.wantPR)
	expect(err == nil, "%v", err)

	// Sketches, clustering and partition have no cheap oracle: their
	// headline values must repeat bit for bit on every round, agree
	// with a recomputation from the returned assignment, and stay
	// inside the pinned quality limits.
	closeSum := 0.0
	for _, s := range r.closeness.Scores {
		closeSum += s
	}
	pins := sessionPins{r.louvain.Q, r.anf.EffectiveDiameter, closeSum, r.kway.Balance, r.louvain.Count, r.kway.EdgeCut}
	if f.pinned == nil {
		f.pinned = &pins
	}
	expect(pins == *f.pinned, "session: results changed between rounds: %+v then %+v", *f.pinned, pins)
	expect(r.anf.EffectiveDiameter > 0 && closeSum > 0, "sketch: effective diameter %g, closeness sum %g", r.anf.EffectiveDiameter, closeSum)
	limit := qualityLimits[f.kind]
	q := math.NaN()
	if len(r.louvain.Assign) == a.n() {
		q = modularityOf(a, r.louvain.Assign, r.louvain.Count)
	}
	expect(math.Abs(q-r.louvain.Q) < 1e-9 && q >= limit.minQ, "louvain: Q=%g, recomputed %g, floor %g", r.louvain.Q, q, limit.minQ)
	cut, balance := int64(-1), math.NaN()
	if len(r.kway.Part) == a.n() {
		cut, balance = cutAndBalance(a, r.kway.Part, kwayParts)
	}
	maxCut := int64(limit.maxCutShare * float64(g.NumEdges()))
	expect(cut == r.kway.EdgeCut && cut <= maxCut, "kway: cut=%d, recomputed %d, ceiling %d", r.kway.EdgeCut, cut, maxCut)
	expect(math.Abs(balance-r.kway.Balance) < 1e-9 && balance <= maxBalance, "kway: balance=%g, recomputed %g, ceiling %g", r.kway.Balance, balance, maxBalance)

	out.vals["bfs.levels"] = float64(levels) / float64(len(r.bfs))
	out.vals["community.modularity"] = r.louvain.Q
	out.vals["community.count"] = float64(r.louvain.Count)
	out.vals["partition.edgecut"] = float64(r.kway.EdgeCut)
	out.vals["partition.imbalance"] = r.kway.Balance
	*r = sessionResults{bfs: r.bfs, sssp: r.sssp, comps: r.comps}
}

func (f *analyzeFixture) replay([clients]*tracer, map[string]float64) {}
