package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"snap/internal/bfs"
	"snap/internal/generate"
	"snap/internal/graph"
	"snap/internal/ingest"
	"snap/internal/sssp"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return generate.RMAT(1<<10, 1<<12, generate.DefaultRMAT(), 7)
}

func weightedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	base := generate.RMAT(1<<9, 1<<11, generate.DefaultRMAT(), 8)
	rng := rand.New(rand.NewSource(9))
	edges := base.EdgeEndpoints()
	for i := range edges {
		edges[i].W = float64(1 + rng.Intn(10))
	}
	return graph.MustBuild(base.NumVertices(), edges, graph.BuildOptions{Weighted: true})
}

func newTestServer(t *testing.T, cfg Config, g *graph.Graph) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.RegisterStatic("g", g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

type distResp struct {
	Graph   string    `json:"graph"`
	Seq     uint64    `json:"seq"`
	Src     int64     `json:"src"`
	Reached int       `json:"reached"`
	Ecc     int32     `json:"ecc"`
	Dst     []int32   `json:"dst"`
	Dist    []float64 `json:"dist"`
	Error   string    `json:"error"`
}

// wantBFS is the oracle answer to a bfs query on handle "g":
// bfs.Serial's distances masked to maxDepth (< 0 = unlimited).
func wantBFS(g *graph.Graph, src, maxDepth int32, dsts []int32) distResp {
	dist := bfs.Serial(g, src, nil).Dist
	masked := func(d int32) int32 {
		if maxDepth >= 0 && d > maxDepth {
			return -1
		}
		return d
	}
	r := distResp{Graph: "g", Src: int64(src), Ecc: -1, Dst: dsts}
	for _, d := range dist {
		if d = masked(d); d >= 0 {
			r.Reached++
			r.Ecc = max(r.Ecc, d)
		}
	}
	for _, d := range dsts {
		r.Dist = append(r.Dist, float64(masked(dist[d])))
	}
	return r
}

// TestBFSMatchesKernel pins response correctness bit-for-bit against a
// direct kernel run, for unlimited and depth-limited queries, through
// the full coalescing + caching stack.
func TestBFSMatchesKernel(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, Config{CoalesceWindow: 100 * time.Microsecond}, g)

	for _, tc := range []struct {
		src      int32
		maxDepth int32
	}{{3, -1}, {3, 2}, {200, -1}, {200, 1}, {5, 0}} {
		url := fmt.Sprintf("%s/graphs/g/bfs?src=%d&dst=0,1,9,700", ts.URL, tc.src)
		if tc.maxDepth >= 0 {
			url += fmt.Sprintf("&maxdepth=%d", tc.maxDepth)
		}
		var got distResp
		if code := getJSON(t, url, &got); code != 200 {
			t.Fatalf("src=%d depth=%d: status %d (%s)", tc.src, tc.maxDepth, code, got.Error)
		}
		if want := wantBFS(g, tc.src, tc.maxDepth, []int32{0, 1, 9, 700}); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("src=%d depth=%d: got %+v, want %+v", tc.src, tc.maxDepth, got, want)
		}
	}
}

// TestSSSPMatchesKernel does the same for weighted distances.
func TestSSSPMatchesKernel(t *testing.T) {
	g := weightedGraph(t)
	_, ts := newTestServer(t, Config{CoalesceWindow: 100 * time.Microsecond}, g)
	for _, src := range []int32{0, 17, 400} {
		want := sssp.Dijkstra(g, src)
		var got distResp
		url := fmt.Sprintf("%s/graphs/g/sssp?src=%d&dst=1,2,3,499", ts.URL, src)
		if code := getJSON(t, url, &got); code != 200 {
			t.Fatalf("src=%d: status %d (%s)", src, code, got.Error)
		}
		for j, d := range got.Dst {
			wd := want.Dist[d]
			if math.IsInf(wd, 1) {
				wd = -1
			}
			if got.Dist[j] != wd {
				t.Fatalf("src=%d: dist[%d] = %g, want %g", src, d, got.Dist[j], wd)
			}
		}
	}
}

// TestCoalescing pins the batching behavior: concurrent queries inside
// one window — many of them for the same source, some depth-limited —
// execute as a single batch with deduplicated traversals, and every
// response equals bfs.Serial masked to its own depth bound.
func TestCoalescing(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, Config{CoalesceWindow: 20 * time.Millisecond}, g)

	const clients = 16
	// 4 distinct sources across 16 clients → 12 traversals saved. Each
	// source is asked unlimited and at depths 0..2, and distinct dst
	// lists keep every request a cache miss.
	src := func(i int) int32 { return int32(50 + i%4) }
	depth := func(i int) int32 { return int32(i/4 - 1) }
	dsts := func(i int) []int32 { return []int32{1, 2, int32(100 + i)} }
	got := make([]distResp, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		url := fmt.Sprintf("%s/graphs/g/bfs?src=%d&dst=1,2,%d", ts.URL, src(i), 100+i)
		if depth(i) >= 0 {
			url += fmt.Sprintf("&maxdepth=%d", depth(i))
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code := getJSON(t, url, &got[i]); code != 200 {
				t.Errorf("client %d: status %d", i, code)
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if want := wantBFS(g, src(i), depth(i), dsts(i)); fmt.Sprint(got[i]) != fmt.Sprint(want) {
			t.Fatalf("client %d: coalesced %+v, want %+v", i, got[i], want)
		}
	}
	st := s.Snapshot()
	if st.Batches == 0 || st.BatchedReqs != clients {
		t.Fatalf("batches=%d batched=%d, want >=1 and %d", st.Batches, st.BatchedReqs, clients)
	}
	if st.DedupSaved < clients-8 {
		t.Fatalf("dedup_saved=%d, want >= %d (16 clients, 4 sources)", st.DedupSaved, clients-8)
	}
}

// TestCacheHitAndEpochInvalidation exercises the result cache against
// a live ingest stream: repeat queries hit, a commit silently retires
// the old epoch's entries (the new seq keys fresh computations), and
// post-commit responses see the new edge.
func TestCacheHitAndEpochInvalidation(t *testing.T) {
	base := generate.RMAT(256, 1024, generate.DefaultRMAT(), 5)
	st := ingest.New(base, ingest.Options{})
	s := New(Config{})
	if err := s.RegisterStream("live", st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Pick an unreached pair, then connect it directly.
	r0 := bfs.Serial(base, 0, nil)
	far := int32(-1)
	for v := int32(1); int(v) < base.NumVertices(); v++ {
		if r0.Dist[v] < 0 {
			far = v
			break
		}
	}
	if far < 0 {
		t.Skip("RMAT instance is connected from 0; no unreached pair")
	}
	url := fmt.Sprintf("%s/graphs/live/bfs?src=0&dst=%d", ts.URL, far)

	var before distResp
	getJSON(t, url, &before)
	getJSON(t, url, &before)
	if st := s.Snapshot(); st.CacheHits == 0 {
		t.Fatalf("repeat query did not hit the cache: %+v", st)
	}
	if before.Dist[0] != -1 {
		t.Fatalf("pre-commit dist 0→%d = %g, want unreached", far, before.Dist[0])
	}

	if err := st.Add(0, far); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	var after distResp
	getJSON(t, url, &after)
	if after.Seq == before.Seq {
		t.Fatalf("post-commit response still keyed to epoch %d", before.Seq)
	}
	if after.Dist[0] != 1 {
		t.Fatalf("post-commit dist 0→%d = %g, want 1", far, after.Dist[0])
	}
}

// TestAdmissionControl pins the 429 fast-fail: with every execution
// slot held, a direct heavy query is rejected rather than queued. The
// blocking acquire a coalesced batch takes parks in a bounded waiting
// room: one waiter fits, the next is rejected.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1}, testGraph(t))
	if !s.lim.tryAcquire() {
		t.Fatal("could not occupy the only slot")
	}
	defer s.lim.release()
	if code := getJSON(t, ts.URL+"/graphs/g/subgraph?v=0,1,2", nil); code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", code)
	}
	if st := s.Snapshot(); st.Rejected == 0 {
		t.Fatalf("rejection not counted: %+v", st)
	}

	l := newLimiter(1, 1)
	if !l.tryAcquire() {
		t.Fatal("could not occupy the only slot")
	}
	parked := make(chan error, 1)
	go func() { parked <- l.acquire() }()
	for l.waiting.Load() == 0 {
		runtime.Gosched()
	}
	if err := l.acquire(); !errors.Is(err, errBusy) {
		t.Fatalf("acquire past a full waiting room returned %v, want errBusy", err)
	}
	l.release()
	if err := <-parked; err != nil {
		t.Fatalf("parked waiter: %v", err)
	}
	l.release()
}

// TestQueryTimeout pins the query deadline: an already-expired one
// surfaces as 504 on both distance lanes, through HTTP and through
// Answer alike.
func TestQueryTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{QueryTimeout: time.Nanosecond}, weightedGraph(t))
	for _, op := range []string{"bfs", "sssp"} {
		if code := getJSON(t, fmt.Sprintf("%s/graphs/g/%s?src=1", ts.URL, op), nil); code != http.StatusGatewayTimeout {
			t.Fatalf("%s with expired deadline answered %d, want 504", op, code)
		}
		if body, code := s.Answer(context.Background(), "g", op, "src=0&dst=1"); code != http.StatusGatewayTimeout {
			t.Fatalf("Answer %s with expired deadline answered %d (%s), want 504", op, code, body)
		}
	}
}

// TestClosedGraph pins the use-after-Close guard end to end: closing a
// registered graph's backing container turns every query into an HTTP
// 410, not a fault on the dead mapping.
func TestClosedGraph(t *testing.T) {
	g := testGraph(t)
	g.SetCloser(func() error { return nil }) // stand-in for an mmap release
	_, ts := newTestServer(t, Config{}, g)
	if code := getJSON(t, ts.URL+"/graphs/g/bfs?src=1", nil); code != 200 {
		t.Fatalf("pre-close query: %d", code)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	var resp distResp
	if code := getJSON(t, ts.URL+"/graphs/g/bfs?src=2", &resp); code != http.StatusGone {
		t.Fatalf("post-close query answered %d, want 410", code)
	}
	if !strings.Contains(resp.Error, "Close") {
		t.Fatalf("error %q does not mention Close", resp.Error)
	}
}

// TestAnalyticsOps smoke-checks the artifact-backed operations and the
// subgraph endpoint through the HTTP surface.
func TestAnalyticsOps(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, Config{}, g)
	d := graph.MustBuild(g.NumVertices(), g.EdgeEndpoints(), graph.BuildOptions{Directed: true})
	if err := s.RegisterStatic("d", d); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"/graphs/g/centrality?kind=degree&k=5",
		"/graphs/g/centrality?kind=pagerank&k=5",
		"/graphs/g/centrality?kind=closeness&k=5",
		"/graphs/g/community?v=1,2,3",
		"/graphs/g/components?v=0,5",
		"/graphs/g/subgraph?v=0,1,2,3,4,5,6,7",
		"/graphs/g/estimate?src=1&dst=9",
		"/graphs/g",
	} {
		var out map[string]any
		if code := getJSON(t, ts.URL+q, &out); code != 200 {
			t.Fatalf("GET %s: status %d (%v)", q, code, out["error"])
		}
	}
	// Artifact singleflight: pagerank ran once despite two requests —
	// six kinds, six builds — and a static handle never chains.
	var out map[string]any
	if code := getJSON(t, ts.URL+"/graphs/g/centrality?kind=pagerank&k=3", &out); code != 200 {
		t.Fatalf("second pagerank: %d", code)
	}
	if st := s.Snapshot(); st.ArtifactBuilds != 6 || st.ArtifactWarmBuilds != 0 {
		t.Fatalf("artifact_builds=%d artifact_warm_builds=%d, want 6 and 0", st.ArtifactBuilds, st.ArtifactWarmBuilds)
	}
	// Malformed requests fail cleanly, and before any build.
	for q, want := range map[string]int{
		"/graphs/g/bfs":                   http.StatusBadRequest, // no src
		"/graphs/g/bfs?src=x":             http.StatusBadRequest,
		"/graphs/g/sssp?src=1&maxdepth=2": http.StatusBadRequest,
		"/graphs/g/nosuchop?src=1":        http.StatusNotFound,
		"/graphs/nosuchgraph/bfs?src=1":   http.StatusNotFound,
		"/graphs/g/bfs?src=99999999":      http.StatusBadRequest,
		"/graphs/d/estimate?src=1&dst=9":  http.StatusBadRequest, // the oracle needs an undirected graph
		"/graphs/d/community":             http.StatusBadRequest, // so does modularity
	} {
		if code := getJSON(t, ts.URL+q, nil); code != want {
			t.Fatalf("GET %s: status %d, want %d", q, code, want)
		}
	}
	if st := s.Snapshot(); st.ArtifactBuilds != 6 {
		t.Fatalf("artifact_builds=%d after the malformed requests, want 6", st.ArtifactBuilds)
	}
}

// TestUnknownArtifactKind: a kind= or algo= the artifact table lacks is
// a 400 before any pin or admission slot, so it is answered as such
// while every slot is held, and builds nothing.
func TestUnknownArtifactKind(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 1}, testGraph(t))
	if !s.lim.tryAcquire() {
		t.Fatal("could not occupy the only slot")
	}
	defer s.lim.release()
	for op, q := range map[string]string{"centrality": "kind=bogus", "community": "algo=bogus"} {
		if body, code := s.Answer(context.Background(), "g", op, q); code != http.StatusBadRequest {
			t.Fatalf("%s?%s: status %d (%s), want 400", op, q, code, body)
		}
	}
	if st := s.Snapshot(); st.ArtifactBuilds != 0 {
		t.Fatalf("artifact_builds=%d, want 0", st.ArtifactBuilds)
	}
}

// TestStreamMutation drives the POST surface: stage edges, commit, and
// observe the epoch advance.
func TestStreamMutation(t *testing.T) {
	st, err := ingest.NewEmpty(16, false, false, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.RegisterStream("live", st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/graphs/live/edges", "application/json",
		strings.NewReader(`{"add":[[0,1],[1,2],[2,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("edges: status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/graphs/live/commit", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats ingest.CommitStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Added != 3 || stats.Seq == 0 {
		t.Fatalf("commit stats %+v, want 3 added at seq > 0", stats)
	}
	var dr distResp
	getJSON(t, ts.URL+"/graphs/live/bfs?src=0&dst=3", &dr)
	if dr.Dist[0] != 3 {
		t.Fatalf("dist 0→3 = %g, want 3 after commit", dr.Dist[0])
	}
}

// spaces is an endless run of JSON whitespace, streamed so an
// oversized body is never held by the client.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestStreamEdgesRejectsBadRows: a batch holding an endpoint that is
// not an int32 vertex id or a weight that is not finite and
// non-negative is answered 400 and stages nothing; a body over the
// 64 MiB cap is answered 413.
func TestStreamEdgesRejectsBadRows(t *testing.T) {
	st, err := ingest.NewEmpty(8, false, true, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.RegisterStream("live", st); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(body io.Reader) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/graphs/live/edges", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"add":[[0,1],[-0.5,3]]}`, http.StatusBadRequest},
		{`{"add":[[0,1],[1.7,2]]}`, http.StatusBadRequest},
		{`{"add":[[0,1],[2,3,-4]]}`, http.StatusBadRequest},
		{`{"del":[[0,1],[4294967296,1]]}`, http.StatusBadRequest},
		{`{"add":[[0,1],[2,3,2.5]]}`, http.StatusOK},
	} {
		if code := post(strings.NewReader(tc.body)); code != tc.want {
			t.Errorf("POST %s: status %d, want %d", tc.body, code, tc.want)
		}
	}
	if p := st.Pending(); p != 2 {
		t.Errorf("pending = %d, want 2: rejected batches must stage nothing", p)
	}
	if code := post(io.LimitReader(spaces{}, 64<<20+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", code)
	}
}

// TestCacheHitZeroAlloc pins the headline steady-state claim: a result
// cache hit through the full answer path — parse, canonical key, LRU
// lookup, body return — performs zero heap allocations. The HTTP
// plumbing above answer (ServeMux, ResponseWriter) is excluded; it is
// the stdlib's and out of scope for the claim.
func TestCacheHitZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-mode sync.Pool drops cached scratch at random; the claim is enforced by the normal-build run")
	}
	g := testGraph(t)
	s, _ := newTestServer(t, Config{}, g)
	const q = "src=3&dst=1,2,9&maxdepth=4"
	if body, code := s.Answer(context.Background(), "g", "bfs", q); code != 200 {
		t.Fatalf("warm query failed: %d %s", code, body)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, code := s.Answer(context.Background(), "g", "bfs", q); code != 200 {
			t.Fatal("hit path failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f times per query, want 0", allocs)
	}
}

// TestLRUEviction pins the cache bounds: inserting past the byte
// budget evicts the coldest entries first.
func TestLRUEviction(t *testing.T) {
	c := newResultCache(256, 100)
	body := make([]byte, 100)
	c.put([]byte("a"), body)
	c.put([]byte("b"), body)
	if c.get([]byte("a")) == nil { // touch: a is now MRU
		t.Fatal("a missing before eviction")
	}
	c.put([]byte("c"), body) // 300 bytes > 256: evicts LRU = b
	if c.get([]byte("b")) != nil {
		t.Fatal("b survived eviction")
	}
	if c.get([]byte("a")) == nil || c.get([]byte("c")) == nil {
		t.Fatal("a or c wrongly evicted")
	}
	_, _, entries, bytes := c.stats()
	if entries != 2 || bytes != 200 {
		t.Fatalf("entries=%d bytes=%d, want 2/200", entries, bytes)
	}
}
