package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"snap"
	"snap/internal/ingest"
	"snap/internal/serve"
)

// serve-ingest: writes beside reads on one stream handle. A round is a
// fixed number of cycles, each
//
//	A  client 0: POST /edges (adds + deletes of existing edges), POST /commit
//	B  client 1: centrality?kind=pagerank&k=10  ∥  client 0: components
//	C  each client: first-touch bfs queries on the new epoch
//
// with a barrier between the phases. Every read after a commit misses
// once (the cache is keyed by epoch) and per-epoch artifacts are built
// from scratch, so a cheaper commit that defers work to the first read
// shows as commit_ms improving and refresh_ms worsening.
type ingestFixture struct {
	cfg     config
	cnt     counts
	g       *snap.Graph
	image   []byte // g as an SNP2 container; every round decodes it afresh
	cycles  []ingestCycle
	stream  *ingest.Stream
	srv     *serve.Server
	handler http.Handler
	distBuf []time.Duration
}

// ingestCycle is one cycle's prebuilt requests, its answers and what
// the oracles expect of them.
type ingestCycle struct {
	adds, dels []snap.Edge
	post       []byte // the /edges JSON body
	edgesReq   *http.Request
	commitReq  *http.Request
	rankReq    *http.Request
	compReq    *http.Request
	reads      [clients][]query

	// answers of the last round: edges, commit, pagerank, components, then the reads
	lat    [4]time.Duration
	status [4]int
	body   [4][]byte
	rdLat  [clients][]time.Duration
	rdStat [clients][]int
	rdBody [clients][][]byte

	wantEdges int
	wantComps int
	wantRank  []float64
}

const (
	reqEdges = iota
	reqCommit
	reqRank
	reqComps
)

func setupIngest(cfg config) fixture {
	f := &ingestFixture{cfg: cfg, cnt: countsAt(cfg.scale)}
	f.g, _ = makeGraph("rmat", cfg, false)
	var img bytes.Buffer
	if err := snap.EncodeContainer(&img, f.g, snap.ContainerOptions{}); err != nil {
		panic(err)
	}
	f.image = img.Bytes()
	_, _, lcc := oracleComponents(adjOf(f.g))
	rng := rand.New(rand.NewSource(cfg.seed + 5))

	// The delta script. Deletes are distinct edges of the base graph,
	// adds are pairs absent from it and from every earlier cycle, so
	// each operation changes the edge set and the expected edge count
	// after cycle c is m + (c+1)·(adds − deletes).
	base := f.g.EdgeEndpoints()
	victims := rng.Perm(len(base))
	added := map[[2]int32]bool{}
	for c := 0; c < f.cnt.Cycles; c++ {
		cy := ingestCycle{}
		for _, i := range victims[c*f.cnt.Deletes : (c+1)*f.cnt.Deletes] {
			cy.dels = append(cy.dels, base[i])
		}
		for len(cy.adds) < f.cnt.Adds {
			u, v := lcc[rng.Intn(len(lcc))], lcc[rng.Intn(len(lcc))]
			if u > v {
				u, v = v, u
			}
			if u == v || f.g.HasEdge(u, v) || added[[2]int32{u, v}] {
				continue
			}
			added[[2]int32{u, v}] = true
			cy.adds = append(cy.adds, snap.Edge{U: u, V: v, W: 1})
		}
		cy.post = edgesJSON(cy.adds, cy.dels)
		cy.edgesReq = mustRequest("POST", "/graphs/g/edges")
		cy.commitReq = mustRequest("POST", "/graphs/g/commit")
		cy.rankReq = mustRequest("GET", "/graphs/g/centrality?kind=pagerank&k=10")
		cy.compReq = mustRequest("GET", "/graphs/g/components")
		cy.reads = scriptedDistances(rng, lcc, f.cnt.CycleBFS, 4, 0, "g", "")
		for c := range cy.reads {
			cy.rdLat[c] = make([]time.Duration, len(cy.reads[c]))
			cy.rdStat[c] = make([]int, len(cy.reads[c]))
			cy.rdBody[c] = make([][]byte, len(cy.reads[c]))
		}
		cy.wantEdges = f.g.NumEdges() + (c+1)*(f.cnt.Adds-f.cnt.Deletes)
		f.cycles = append(f.cycles, cy)
	}
	f.distBuf = make([]time.Duration, 0, f.cnt.Cycles*clients*f.cnt.CycleBFS)
	return f
}

func edgesJSON(adds, dels []snap.Edge) []byte {
	b := []byte(`{"add":[`)
	pairs := func(es []snap.Edge) {
		for i, e := range es {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(e.U), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(e.V), 10)
			b = append(b, ']')
		}
	}
	pairs(adds)
	b = append(b, `],"del":[`...)
	pairs(dels)
	return append(b, `]}`...)
}

// oracles replays the delta script on the map model — the base CSR
// plus the sets of deleted and added pairs — and, for the edge set
// after each commit, runs the queue BFS of every scripted read, the
// component count and the power iteration.
func (f *ingestFixture) oracles() {
	deleted, added := map[[2]int32]bool{}, []snap.Edge{}
	model := make([]adjacency, len(f.cycles)) // the edge set after each commit
	for c, cy := range f.cycles {
		for _, e := range cy.dels {
			deleted[[2]int32{e.U, e.V}] = true
		}
		added = append(added, cy.adds...)
		model[c] = modelAdjacency(f.g, deleted, added)
	}
	bothClients(func(half int) {
		for c := half; c < len(f.cycles); c += clients {
			cy := &f.cycles[c]
			fillWants(model[c], adjacency{}, cy.reads[:]...)
			_, cy.wantComps, _ = oracleComponents(model[c])
			cy.wantRank = oraclePageRank(model[c])
		}
	})
}

// modelAdjacency materialises the model's edge set as a CSR: the base
// graph's arcs minus the deleted pairs plus the added ones.
func modelAdjacency(g *snap.Graph, deleted map[[2]int32]bool, added []snap.Edge) adjacency {
	n := g.NumVertices()
	gone := func(u, v int32) bool {
		if u > v {
			u, v = v, u
		}
		return deleted[[2]int32{u, v}]
	}
	touched := map[int32]bool{} // tails whose row loses an arc
	for p := range deleted {
		touched[p[0]], touched[p[1]] = true, true
	}
	off := make([]int64, n+1)
	for u := int32(0); int(u) < n; u++ {
		d := int64(g.Degree(u))
		if touched[u] {
			for _, v := range g.Neighbors(u) {
				if gone(u, v) {
					d--
				}
			}
		}
		off[u+1] = d
	}
	for _, e := range added {
		off[e.U+1]++
		off[e.V+1]++
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	adj, next := make([]int32, off[n]), append([]int64(nil), off[:n]...)
	put := func(u, v int32) { adj[next[u]] = v; next[u]++ }
	for u := int32(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if !touched[u] || !gone(u, v) {
				put(u, v)
			}
		}
	}
	for _, e := range added {
		put(e.U, e.V)
		put(e.V, e.U)
	}
	return adjacency{off: off, adj: adj}
}

// prepare gives the round a fresh stream over a fresh decode of the
// set-up container image, behind a fresh server.
func (f *ingestFixture) prepare() {
	f.close()
	g, err := snap.DecodeContainer(f.image, snap.MapLoadOptions{})
	if err != nil {
		panic(err)
	}
	f.stream = ingest.New(g, ingest.Options{})
	f.srv = serve.New(serve.Config{})
	if err := f.srv.RegisterStream("g", f.stream); err != nil {
		panic(err)
	}
	f.handler = f.srv.Handler()
	for c := range f.cycles {
		f.cycles[c].edgesReq.Body = io.NopCloser(bytes.NewReader(f.cycles[c].post))
	}
}

func (f *ingestFixture) close() {
	if f.stream != nil {
		f.stream.Close()
		f.stream = nil
	}
}

func (f *ingestFixture) round(tr [clients]*tracer) roundOut {
	out := roundOut{vals: map[string]float64{}, segs: make([]time.Duration, 0, 4*len(f.cycles))}
	var w [clients]*sink
	for c := range w {
		w[c] = newSink()
	}
	send := func(c int, cy *ingestCycle, slot int, span string, req *http.Request) {
		t := time.Now()
		f.handler.ServeHTTP(w[c], req)
		now := time.Now()
		tr[c].add(span, int32(slot), t, now)
		cy.lat[slot], cy.status[slot] = now.Sub(t), w[c].status
		cy.body[slot] = append(cy.body[slot][:0], w[c].body...)
	}
	start := time.Now()
	for i := range f.cycles {
		cy := &f.cycles[i]
		send(0, cy, reqEdges, "serve.edges_post", cy.edgesReq)
		send(0, cy, reqCommit, "serve.commit_post", cy.commitReq)
		artifacts := bothClients(func(c int) {
			if c == 0 {
				send(0, cy, reqComps, "serve.artifact_components", cy.compReq)
			} else {
				send(1, cy, reqRank, "serve.artifact_pagerank", cy.rankReq)
			}
		})
		reads := bothClients(func(c int) {
			t := time.Now()
			for j := range cy.reads[c] {
				f.handler.ServeHTTP(w[c], cy.reads[c][j].req[c])
				now := time.Now()
				tr[c].add("serve.http_miss", int32(j), t, now)
				cy.rdLat[c][j], t = now.Sub(t), now
				cy.rdStat[c][j] = w[c].status
				cy.rdBody[c][j] = append(cy.rdBody[c][j][:0], w[c].body...)
			}
		})
		out.segs = append(out.segs, cy.lat[reqEdges], cy.lat[reqCommit], artifacts, reads)
	}
	out.wall = time.Since(start)

	serveCounters(serve.Stats{}, f.srv.Snapshot(), out.vals)
	var commits, refreshes []float64
	f.distBuf = f.distBuf[:0]
	for i := range f.cycles {
		cy := &f.cycles[i]
		commits = append(commits, ms(cy.lat[reqCommit]))
		refreshes = append(refreshes, ms(cy.lat[reqRank]))
		out.ops += len(cy.lat)
		for c := range cy.rdLat {
			out.ops += len(cy.rdLat[c])
			f.distBuf = append(f.distBuf, cy.rdLat[c]...)
		}
	}
	out.dist = f.distBuf
	out.vals["commit_ms"] = median(commits)
	out.vals["refresh_ms"] = median(refreshes)
	return out
}

func (f *ingestFixture) verify(out *roundOut) {
	check := func(err error) {
		out.checked++
		out.fails.add(err)
	}
	for i := range f.cycles {
		cy := &f.cycles[i]
		var edges struct{ Pending int }
		var commit struct {
			Seq                   uint64
			Added, Deleted, Edges int
		}
		var comps struct{ Count int }
		var rank struct {
			K     int
			Top   []int32
			Score []float64
		}
		for slot, into := range []any{&edges, &commit, &rank, &comps} {
			if cy.status[slot] != 200 {
				check(fmt.Errorf("cycle %d request %d: status %d: %s", i, slot, cy.status[slot], cy.body[slot]))
			} else {
				check(json.Unmarshal(cy.body[slot], into))
			}
		}
		if f.cfg.corrupt && i == 0 {
			commit.Edges++
		}
		switch {
		case edges.Pending != len(cy.adds)+len(cy.dels):
			check(fmt.Errorf("cycle %d: %d pending after the post, want %d", i, edges.Pending, len(cy.adds)+len(cy.dels)))
		case commit.Seq != uint64(i+1) || commit.Added != len(cy.adds) || commit.Deleted != len(cy.dels) || commit.Edges != cy.wantEdges:
			check(fmt.Errorf("cycle %d: commit answered %+v, the map model has seq=%d added=%d deleted=%d edges=%d",
				i, commit, i+1, len(cy.adds), len(cy.dels), cy.wantEdges))
		case comps.Count != cy.wantComps:
			check(fmt.Errorf("cycle %d: %d components, oracle %d", i, comps.Count, cy.wantComps))
		default:
			check(checkTopRank(rank.Top, rank.Score, cy.wantRank))
		}
		for c := range cy.reads {
			for j, q := range cy.reads[c] {
				check(checkDistBody(cy.rdStat[c][j], cy.rdBody[c][j], q.want))
			}
		}
	}
}

// checkTopRank checks a top-10 PageRank answer against the power
// iteration: listed scores match, descend, and no unlisted vertex
// outranks the last listed one.
func checkTopRank(top []int32, score []float64, want []float64) error {
	if len(top) != 10 || len(score) != 10 {
		return fmt.Errorf("pagerank: top has %d ids and %d scores, want 10", len(top), len(score))
	}
	listed := map[int32]bool{}
	for i, v := range top {
		listed[v] = true
		if int(v) >= len(want) || math.Abs(score[i]-want[v]) > pageRankTol || (i > 0 && score[i] > score[i-1]) {
			return fmt.Errorf("pagerank: top[%d]=%d score %g, power iteration disagrees", i, v, score[i])
		}
	}
	for v, x := range want {
		if !listed[int32(v)] && x > score[9]+pageRankTol {
			return fmt.Errorf("pagerank: vertex %d (%.3g) outranks the listed top-10 (%.3g)", v, x, score[9])
		}
	}
	return nil
}

// replay applies the same delta script straight to the layers under
// the two POST handlers: graph.MergeDelta on the pinned epoch, then
// Stream.AddEdges and Stream.Commit.
func (f *ingestFixture) replay(trs [clients]*tracer, vals map[string]float64) {
	f.prepare()
	tr := trs[0]
	var perEdge []float64
	for i := range f.cycles {
		cy := &f.cycles[i]
		e := f.stream.Pin()
		id := tr.begin("graph.merge_delta", -1, int32(i), true)
		_, err := snap.MergeDelta(e.Graph(), cy.adds, cy.dels)
		tr.end(id)
		e.Close()
		if err != nil {
			panic(err)
		}
		t := time.Now()
		if err := f.stream.AddEdges(cy.adds); err != nil {
			panic(err)
		}
		perEdge = append(perEdge, us(time.Since(t))/float64(len(cy.adds)))
		for _, d := range cy.dels {
			if err := f.stream.Delete(d.U, d.V); err != nil {
				panic(err)
			}
		}
		id = tr.begin("ingest.commit", -1, int32(i), true)
		_, err = f.stream.Commit()
		tr.end(id)
		if err != nil {
			panic(err)
		}
	}
	vals["ingest.add_us_edge"] = median(perEdge)
}
