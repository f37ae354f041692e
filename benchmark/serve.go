package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"snap"
	"snap/internal/serve"
)

// Serve workloads are closed loops: each of the two clients sends its
// next request only when the previous one has been answered. Clients
// are goroutines calling Server.Handler().ServeHTTP with a reusable
// discarding ResponseWriter, so the mux, parser, cache, coalescer,
// admission and kernels are measured and the loopback stack is not.

// sink is a ResponseWriter that keeps the status and the body of the
// last response in a buffer it reuses.
type sink struct {
	header http.Header
	status int
	body   []byte
}

func newSink() *sink                { return &sink{header: http.Header{}} }
func (s *sink) Header() http.Header { return s.header }
func (s *sink) WriteHeader(status int) {
	s.status, s.body = status, s.body[:0]
}
func (s *sink) Write(b []byte) (int, error) {
	s.body = append(s.body, b...)
	return len(b), nil
}

// query is one prebuilt GET of a distance operation and, once the
// oracles have run, the answer it must receive.
type query struct {
	graph, op, raw string
	req            [clients]*http.Request // ServeMux writes match state into the request, so each client owns one
	want           distWant
}

func newQuery(graph, op string, src int32, dst []int32) query {
	q := query{graph: graph, op: op, raw: fmt.Sprintf("src=%d&dst=%d,%d,%d", src, dst[0], dst[1], dst[2])}
	q.want.src, q.want.dst, q.want.sssp = src, dst, op == "sssp"
	for c := range q.req {
		q.req[c] = mustRequest("GET", "/graphs/"+graph+"/"+op+"?"+q.raw)
	}
	return q
}

func mustRequest(method, url string) *http.Request {
	r, err := http.NewRequest(method, url, nil)
	if err != nil {
		panic(err)
	}
	return r
}

// bothClients runs fn(0) and fn(1) concurrently and returns the wall
// time from the common start until both have finished.
func bothClients(fn func(c int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for c := 1; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	fn(0)
	wg.Wait()
	return time.Since(start)
}

// hotParts and coldParts are into how many parts the replay of a round
// is cut. The clients meet at a barrier between two parts, and the wall
// time of each part is one entry of roundOut.segs.
const (
	hotParts  = 20
	coldParts = 25
)

// parts cuts [0,n) into at most k ranges [lo,hi) of equal length, the
// last one shorter when k does not divide n.
func parts(n, k int) [][2]int {
	var out [][2]int
	for lo, step := 0, (n+k-1)/k; lo < n; lo += step {
		out = append(out, [2]int{lo, min(lo+step, n)})
	}
	return out
}

// serveCounters turns the difference of two Server.Snapshot calls into
// the serve layer's count metrics.
func serveCounters(before, after serve.Stats, vals map[string]float64) (hits, misses uint64) {
	hits, misses = after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if batches := after.Batches - before.Batches; batches > 0 {
		vals["serve.batch_size"] = float64(after.BatchedReqs-before.BatchedReqs) / float64(batches)
	}
	vals["serve.dedup_saved"] = float64(after.DedupSaved - before.DedupSaved)
	vals["serve.rejected"] = float64(after.Rejected - before.Rejected)
	if hits+misses > 0 {
		vals["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return hits, misses
}

// scriptedDistances builds per-client lists of never-repeated distance
// queries: client c draws its sources from its own half of a small
// source pool (so two clients never share a traversal and the dedupe
// counter stays at zero), every query has its own dst triple, and
// every fifth query is an sssp on the weighted graph.
func scriptedDistances(rng *rand.Rand, lcc []int32, perClient, bfsPool, ssspPool int, bfsGraph, ssspGraph string) [clients][]query {
	perPool := bfsPool + ssspPool // distinct sources per client, one oracle run each
	pool := drawDistinct(rng, lcc, clients*perPool)
	seen := map[string]bool{}
	var out [clients][]query
	for c := range out {
		mine := pool[c*perPool : (c+1)*perPool]
		for i := 0; len(out[c]) < perClient; i++ {
			graph, op, src := bfsGraph, "bfs", mine[i%bfsPool]
			if ssspPool > 0 && len(out[c])%5 == 4 {
				graph, op, src = ssspGraph, "sssp", mine[bfsPool+i%ssspPool]
			}
			q := newQuery(graph, op, src, drawFrom(rng, lcc, 3))
			if !seen[q.op+q.raw] {
				seen[q.op+q.raw] = true
				out[c] = append(out[c], q)
			}
		}
	}
	return out
}

// fillWants gives every query of the scripts the oracle's answer,
// running each oracle once per distinct source.
func fillWants(g, gw adjacency, scripts ...[]query) {
	bySrc := map[[2]int32][]*query{}
	for _, script := range scripts {
		for i := range script {
			q := &script[i]
			k := [2]int32{q.want.src, 0}
			if q.want.sssp {
				k[1] = 1
			}
			bySrc[k] = append(bySrc[k], q)
		}
	}
	hop := make([]int32, g.n())
	for k, group := range bySrc {
		if k[1] == 1 {
			dist, reached := oracleDijkstra(gw, k[0])
			for _, q := range group {
				q.want = wantFromDijkstra(k[0], q.want.dst, dist, reached)
			}
			continue
		}
		reached, ecc := oracleBFS(g, k[0], hop)
		for _, q := range group {
			q.want = wantFromBFS(k[0], q.want.dst, hop, reached, ecc)
		}
	}
}

// serve-hot

type hotFixture struct {
	cfg     config
	cnt     counts
	g       *snap.Graph
	srv     *serve.Server
	handler http.Handler
	queries []query
	bodies  [][]byte          // the first (miss) body of each query: every hit must equal it
	seq     [clients][]uint16 // pre-drawn Zipf(1.1) replay order
	lat     [clients][]time.Duration
	distBuf []time.Duration
	warmErr failures
}

func setupHot(cfg config) fixture {
	f := &hotFixture{cfg: cfg, cnt: countsAt(cfg.scale)}
	f.g, _ = makeGraph("rmat", cfg, false)
	_, _, lcc := oracleComponents(adjOf(f.g))
	rng := rand.New(rand.NewSource(cfg.seed + 3))
	for _, src := range drawDistinct(rng, lcc, f.cnt.HotQueries) {
		f.queries = append(f.queries, newQuery("g", "bfs", src, drawFrom(rng, lcc, 3)))
	}
	for c := range f.seq {
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(f.queries)-1))
		f.seq[c] = make([]uint16, f.cnt.HotReplays)
		for i := range f.seq[c] {
			f.seq[c][i] = uint16(zipf.Uint64())
		}
		f.lat[c] = make([]time.Duration, f.cnt.HotReplays)
	}
	f.distBuf = make([]time.Duration, 0, clients*f.cnt.HotReplays)

	f.srv = serve.New(serve.Config{})
	if err := f.srv.RegisterStatic("g", f.g); err != nil {
		panic(err)
	}
	f.handler = f.srv.Handler()
	// Warm the result cache: each query misses once, here.
	f.bodies = make([][]byte, len(f.queries))
	bothClients(func(c int) {
		w := newSink()
		for i := c; i < len(f.queries); i += clients {
			f.handler.ServeHTTP(w, f.queries[i].req[c])
			if w.status == 200 {
				f.bodies[i] = bytes.Clone(w.body)
			}
		}
	})
	return f
}

func (f *hotFixture) oracles() {
	fillWants(adjOf(f.g), adjacency{}, f.queries)
	for i, q := range f.queries {
		f.warmErr.add(checkDistBody(200, f.bodies[i], q.want))
	}
}

func (f *hotFixture) prepare() {}
func (f *hotFixture) close()   {}

func (f *hotFixture) round(tr [clients]*tracer) roundOut {
	out := roundOut{vals: map[string]float64{}, segs: make([]time.Duration, 0, hotParts)}
	var wrong [clients]int
	before := f.srv.Snapshot()
	w := [clients]*sink{newSink(), newSink()}
	for _, part := range parts(f.cnt.HotReplays, hotParts) {
		d := bothClients(func(c int) {
			w, lat, t := w[c], f.lat[c], time.Now()
			for i := part[0]; i < part[1]; i++ {
				q := f.seq[c][i]
				f.handler.ServeHTTP(w, f.queries[q].req[c])
				now := time.Now()
				tr[c].add("serve.http_hit", int32(i), t, now)
				lat[i], t = now.Sub(t), now
				if w.status != 200 || !bytes.Equal(w.body, f.bodies[q]) {
					wrong[c]++
				}
			}
		})
		out.segs, out.wall = append(out.segs, d), out.wall+d
	}
	hits, misses := serveCounters(before, f.srv.Snapshot(), out.vals)
	for c := range f.lat {
		out.ops += len(f.lat[c])
		out.fails.addN(wrong[c], fmt.Errorf("serve-hot: client %d got %d answers that differ from the first miss body", c, wrong[c]))
		f.distBuf = append(f.distBuf[:c*len(f.lat[0])], f.lat[c]...)
	}
	out.dist, out.checked = f.distBuf, out.ops
	if misses != 0 || hits != uint64(out.ops) {
		out.fails.add(fmt.Errorf("serve-hot: %d hits and %d misses for %d requests, want every request to hit", hits, misses, out.ops))
	}
	return out
}

func (f *hotFixture) verify(out *roundOut) {
	// Hits were compared with the first miss bodies inside the loop;
	// those bodies were checked against the queue BFS in oracles.
	out.checked += len(f.queries)
	out.fails.merge(f.warmErr)
	if f.cfg.corrupt {
		out.fails.add(checkDistBody(200, bytes.Replace(f.bodies[0], []byte(`"reached":`), []byte(`"reached":1`), 1), f.queries[0].want))
	}
}

// replay sends the hot script through Server.Answer, the entry below
// the mux and the ResponseWriter; the difference to the http spans is
// the HTTP plumbing's share of a hit.
func (f *hotFixture) replay(tr [clients]*tracer, _ map[string]float64) {
	ctx := context.Background()
	bothClients(func(c int) {
		t := time.Now()
		for i, q := range f.seq[c] {
			f.srv.Answer(ctx, "g", "bfs", f.queries[q].raw)
			now := time.Now()
			tr[c].add("serve.answer_hit", int32(i), t, now)
			t = now
		}
	})
}

// serve-cold

type coldFixture struct {
	cfg     config
	cnt     counts
	g, gw   *snap.Graph
	srv     *serve.Server
	handler http.Handler
	script  [clients][]query
	lat     [clients][]time.Duration
	status  [clients][]int
	bodies  [clients][][]byte
	distBuf []time.Duration
}

func setupCold(cfg config) fixture {
	f := &coldFixture{cfg: cfg, cnt: countsAt(cfg.scale)}
	f.g, f.gw = makeGraph("rmat", cfg, true)
	_, _, lcc := oracleComponents(adjOf(f.g))
	f.script = scriptedDistances(rand.New(rand.NewSource(cfg.seed+4)), lcc, f.cnt.ColdQueries, 16, 4, "g", "gw")
	for c := range f.script {
		f.lat[c] = make([]time.Duration, len(f.script[c]))
		f.status[c] = make([]int, len(f.script[c]))
		f.bodies[c] = make([][]byte, len(f.script[c]))
	}
	f.distBuf = make([]time.Duration, 0, clients*f.cnt.ColdQueries)
	return f
}

func (f *coldFixture) oracles() {
	fillWants(adjOf(f.g), adjOf(f.gw), f.script[:]...)
}

// prepare starts every round on a fresh server, so the same script
// misses the result cache again.
func (f *coldFixture) prepare() {
	f.srv = serve.New(serve.Config{})
	if err := f.srv.RegisterStatic("g", f.g); err != nil {
		panic(err)
	}
	if err := f.srv.RegisterStatic("gw", f.gw); err != nil {
		panic(err)
	}
	f.handler = f.srv.Handler()
}

func (f *coldFixture) close() {}

func (f *coldFixture) round(tr [clients]*tracer) roundOut {
	out := roundOut{vals: map[string]float64{}, segs: make([]time.Duration, 0, coldParts)}
	w := [clients]*sink{newSink(), newSink()}
	for _, part := range parts(f.cnt.ColdQueries, coldParts) {
		d := bothClients(func(c int) {
			w, t := w[c], time.Now()
			for i := part[0]; i < part[1]; i++ {
				f.handler.ServeHTTP(w, f.script[c][i].req[c])
				now := time.Now()
				tr[c].add("serve.http_miss", int32(i), t, now)
				f.lat[c][i], t = now.Sub(t), now
				f.status[c][i], f.bodies[c][i] = w.status, append(f.bodies[c][i][:0], w.body...)
			}
		})
		out.segs, out.wall = append(out.segs, d), out.wall+d
	}
	hits, _ := serveCounters(serve.Stats{}, f.srv.Snapshot(), out.vals)
	if hits != 0 {
		out.fails.add(fmt.Errorf("serve-cold: %d cache hits, want every request to miss", hits))
	}
	f.distBuf = f.distBuf[:0]
	for c := range f.lat {
		out.ops += len(f.lat[c])
		f.distBuf = append(f.distBuf, f.lat[c]...)
	}
	out.dist = f.distBuf
	return out
}

func (f *coldFixture) verify(out *roundOut) {
	for c := range f.script {
		for i, q := range f.script[c] {
			body := f.bodies[c][i]
			if f.cfg.corrupt && c == 0 && i == 0 {
				body = bytes.Replace(body, []byte(`"reached":`), []byte(`"reached":1`), 1)
			}
			out.checked++
			out.fails.add(checkDistBody(f.status[c][i], body, q.want))
		}
	}
}

// replay repeats the cold script twice below the HTTP layer: through
// Server.Answer on a fresh server, part by part as in a round, and with
// the same sources straight on pooled bfs/sssp workspaces, one at a
// time. Answer minus kernel is what a miss pays for the coalescing
// window, its companion in the batch, the pin, the encode and the cache
// put.
func (f *coldFixture) replay(tr [clients]*tracer, _ map[string]float64) {
	f.prepare()
	ctx := context.Background()
	for _, part := range parts(f.cnt.ColdQueries, coldParts) {
		bothClients(func(c int) {
			t := time.Now()
			for i := part[0]; i < part[1]; i++ {
				q := &f.script[c][i]
				f.srv.Answer(ctx, q.graph, q.op, q.raw)
				now := time.Now()
				tr[c].add("serve.answer_miss", int32(i), t, now)
				t = now
			}
		})
	}
	ssspWS := snap.AcquireSSSPWorkspace()
	defer snap.ReleaseSSSPWorkspace(ssspWS)
	for c := range f.script {
		t := time.Now()
		for i, q := range f.script[c] {
			if q.want.sssp {
				ssspWS.Run(f.gw, q.want.src, snap.DeltaSteppingOptions{})
			} else {
				snap.BFSMultiSource(f.g, []int32{q.want.src}, -1, func(int, int, *snap.BFSWorkspace) {})
			}
			now := time.Now()
			tr[c].add("serve.kernel_miss", int32(i), t, now)
			t = now
		}
	}
}
