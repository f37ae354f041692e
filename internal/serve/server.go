// Package serve is the long-lived graph-analytics serving tier: an
// HTTP/JSON front end over the repo's kernels, built for sustained
// concurrent query load against graphs that are either mmap'd SNP2
// containers (static handles) or live snapshot-epoch ingest streams
// (dynamic handles, queried while a writer commits).
//
// Three mechanisms carry the performance story:
//
//   - Request coalescing (coalesce.go): concurrent single-source
//     distance queries inside a small window run as ONE multi-source
//     sweep over pooled workspaces, with source dedupe and a single
//     epoch pin and admission slot for the batch.
//
//   - An epoch-keyed LRU result cache (cache.go): finished response
//     bodies keyed by (graph, epoch seq, canonical query). Epoch
//     pointer swaps invalidate for free — new requests key under the
//     new seq — and a cache hit allocates nothing (pooled scratch,
//     no-alloc map lookup, pre-built body bytes).
//
//   - Zero-alloc steady state: the kernels already run on epoch-stamped
//     pooled workspaces; the serving layer adds pooled parse/key/body
//     scratch so the per-query garbage is bounded by the miss rate, not
//     the request rate.
//
// Expensive per-epoch artifacts (exact centrality vectors, community
// assignments, component labelings, landmark distance oracles) are
// computed once per epoch and singleflighted (artifacts.go); on stream
// handles each epoch's PageRank warm-starts from the last one built.
// Admission control bounds in-flight heavy queries and fast-fails the
// overflow with HTTP 429 (limit.go). A query whose context ends (client
// gone, QueryTimeout) is answered at once; its batch drops it before
// the sweep, and an SSSP run whose waiters have all gone stops at its
// next bucket boundary.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snap/internal/centrality"
	"snap/internal/community"
	"snap/internal/components"
	"snap/internal/graph"
	"snap/internal/ingest"
	"snap/internal/metrics"
	"snap/internal/sketch"
)

// Defaults for the Config zero value.
const (
	DefaultCoalesceWindow = 500 * time.Microsecond
	DefaultCacheBytes     = 64 << 20
)

// Fixed bounds: the result cache's entry count, and the admission
// waiting room, which also caps each coalescing lane's pending queue
// (overflow fast-fails with 429).
const (
	cacheEntries = 8192
	maxWaiting   = 1024
)

// Config tunes a Server. For every field, a value <= 0 means the
// default: coalescing, a 64 MiB result cache, 2×GOMAXPROCS admission
// slots, kernels at par.Workers(), and no query deadline.
type Config struct {
	// CoalesceWindow is how long the first distance query of a batch
	// waits for companions.
	CoalesceWindow time.Duration
	// CacheBytes bounds the result cache.
	CacheBytes int64
	// MaxInFlight bounds concurrently executing heavy queries
	// (traversal batches, artifact builds, subgraph extraction).
	MaxInFlight int
	// Workers caps the parallelism of each kernel invocation.
	Workers int
	// QueryTimeout bounds each query's execution; an expired query is
	// answered 504.
	QueryTimeout time.Duration
}

func (c *Config) fill() {
	if c.CoalesceWindow <= 0 {
		c.CoalesceWindow = DefaultCoalesceWindow
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
}

// Server routes analytics queries over a set of registered graph
// handles. Safe for concurrent use; graphs may be registered while
// queries are in flight.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *resultCache
	lim   *limiter

	mu      sync.RWMutex
	handles map[string]*handle

	// Coalescing counters, aggregated across handles.
	batches, batchedReqs, dedupSaved atomic.Uint64
	// Artifact builds run, and how many of them started from the
	// previous epoch's result instead of from scratch.
	artifactBuilds, artifactWarmBuilds atomic.Uint64
}

// handle is one registered graph: a static *graph.Graph (possibly an
// mmap'd container) or a live ingest stream, plus the per-handle
// coalescer and per-epoch artifact cache.
type handle struct {
	name   string
	static *graph.Graph
	stream *ingest.Stream
	coal   *coalescer
	art    artifactCache
}

// curSeq reads the handle's current epoch sequence without pinning:
// the cheap, allocation-free read the cache-hit path keys on. Static
// handles are forever epoch 0.
func (h *handle) curSeq() uint64 {
	if h.stream != nil {
		return h.stream.Seq()
	}
	return 0
}

// pin acquires a stable view of the handle's graph: for streams a
// pinned epoch (released by the returned func), for static graphs the
// graph itself after the use-after-Close guard. Every compute path
// goes through pin, so a closed mmap'd graph turns into an HTTP 410
// instead of a fault on the dead mapping.
func (h *handle) pin() (*graph.Graph, uint64, func(), error) {
	if h.stream != nil {
		e := h.stream.Pin()
		return e.Graph(), e.Seq(), e.Close, nil
	}
	if err := h.static.CheckOpen(); err != nil {
		return nil, 0, nil, err
	}
	return h.static, 0, func() {}, nil
}

// New builds a Server and its route table.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheBytes, cacheEntries),
		lim:     newLimiter(cfg.MaxInFlight, maxWaiting),
		handles: make(map[string]*handle),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeBody(w, http.StatusOK, []byte(`{"ok":true}`))
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /graphs", s.handleList)
	mux.HandleFunc("GET /graphs/{name}", s.handleInfo)
	mux.HandleFunc("GET /graphs/{name}/{op}", s.handleQuery)
	mux.HandleFunc("POST /graphs/{name}/edges", s.handleEdges)
	mux.HandleFunc("POST /graphs/{name}/commit", s.handleCommit)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) workers() int { return s.cfg.Workers }

// RegisterStatic serves g under name. The server does not take
// ownership: closing an mmap'd g while registered is safe (queries
// fail with 410 Gone) but is the operator's lifecycle to manage.
func (s *Server) RegisterStatic(name string, g *graph.Graph) error {
	return s.register(&handle{name: name, static: g})
}

// RegisterStream serves the live epochs of st under name; queries pin
// the newest committed epoch.
func (s *Server) RegisterStream(name string, st *ingest.Stream) error {
	return s.register(&handle{name: name, stream: st})
}

func (s *Server) register(h *handle) error {
	if !validName(h.name) {
		return fmt.Errorf("serve: invalid graph name %q (want [A-Za-z0-9._-]+)", h.name)
	}
	h.coal = &coalescer{s: s, h: h}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.handles[h.name]; ok {
		return fmt.Errorf("serve: graph %q already registered", h.name)
	}
	s.handles[h.name] = h
	return nil
}

// validName keeps graph names JSON- and cache-key-safe without any
// escaping on the hot path.
func validName(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (s *Server) lookup(name string) *handle {
	s.mu.RLock()
	h := s.handles[name]
	s.mu.RUnlock()
	return h
}

// Request-level errors and their HTTP mapping.

type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

var (
	errBadVertex = badRequest("vertex id out of range")
	errUnknownOp = errors.New("serve: unknown operation")
)

// StatusClientClosed is the non-standard (nginx-convention) status for
// a query abandoned by its client before completion.
const StatusClientClosed = 499

func statusFor(err error) int {
	var br *badRequestError
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, graph.ErrClosed):
		return http.StatusGone
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosed
	case errors.Is(err, errUnknownOp):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

func errJSON(err error) []byte {
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	return b
}

// Answer runs one analytics query against a registered graph and
// returns the JSON body and HTTP status. It is the one query path:
// GET /graphs/{name}/{op} is a thin wrapper over it, and in-process
// consumers (the load harness measures the serving core through it)
// get the same coalescing/caching/admission behavior as remote clients.
//
// Answer parses the raw query into pooled scratch, keys the result
// cache under the handle's CURRENT epoch seq, and on a hit returns the
// cached body — allocating nothing. On a miss it computes under the
// query deadline (compute pins an epoch; the pinned seq may be newer
// than the keyed one if a commit raced) and inserts under the seq the
// computation actually observed.
func (s *Server) Answer(ctx context.Context, graphName, op, rawQuery string) ([]byte, int) {
	h := s.lookup(graphName)
	if h == nil {
		return []byte(`{"error":"unknown graph"}`), http.StatusNotFound
	}
	sc := getScratch()
	defer putScratch(sc)
	if err := parseParams(rawQuery, sc); err != nil {
		return errJSON(badRequest("%v", err)), http.StatusBadRequest
	}
	seq := h.curSeq()
	sc.key = appendKey(sc.key[:0], h.name, seq, op, &sc.p)
	if body := s.cache.get(sc.key); body != nil {
		return body, http.StatusOK
	}
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	body, ranSeq, err := s.compute(ctx, h, op, sc)
	if err != nil {
		return errJSON(err), statusFor(err)
	}
	if ranSeq != seq {
		sc.key = appendKey(sc.key[:0], h.name, ranSeq, op, &sc.p)
	}
	return s.cache.put(sc.key, body), http.StatusOK
}

// compute dispatches a cache miss to its kernel path. The returned
// body aliases sc.body; callers must copy before sc is pooled (the
// cache put does).
func (s *Server) compute(ctx context.Context, h *handle, op string, sc *scratch) (body []byte, seq uint64, err error) {
	p := &sc.p
	switch op {
	case "bfs", "sssp":
		if p.src < 0 {
			return nil, 0, badRequest("%s: src parameter required", op)
		}
		lane := laneBFS
		if op == "sssp" {
			lane = laneSSSP
			if p.maxDepth >= 0 {
				return nil, 0, badRequest("sssp: maxdepth applies to bfs only")
			}
		}
		w, err := h.coal.distQuery(ctx, lane, int32(p.src), int32(p.maxDepth), p.dst)
		if err != nil {
			return nil, 0, err
		}
		b := appendJSONHead(sc.body[:0], h.name, w.seq, op)
		b = appendJSONKeyInt(b, "src", p.src)
		if lane == laneBFS && p.maxDepth >= 0 {
			b = appendJSONKeyInt(b, "maxdepth", p.maxDepth)
		}
		b = appendJSONKeyInt(b, "reached", int64(w.reached))
		if lane == laneBFS {
			b = appendJSONKeyInt(b, "ecc", int64(w.ecc))
		}
		b = appendJSONKeyIntList(b, "dst", w.dsts)
		if lane == laneBFS {
			b = appendJSONKeyIntList(b, "dist", w.hop)
		} else {
			b = appendJSONKeyFloatList(b, "dist", w.wdist)
		}
		sc.body = append(b, '}')
		return sc.body, w.seq, nil

	case "estimate":
		if p.src < 0 || len(p.dst) != 1 {
			return nil, 0, badRequest("estimate: src and exactly one dst required")
		}
		val, seq, err := s.pinArtifact(h, "oracle", func(g *graph.Graph) error {
			if int(p.src) >= g.NumVertices() || int(p.dst[0]) >= g.NumVertices() {
				return errBadVertex
			}
			if g.Directed() {
				return badRequest("estimate: the landmark oracle needs an undirected graph")
			}
			return nil
		})
		if err != nil {
			return nil, seq, err
		}
		lo, hi := val.(*sketch.Oracle).Estimate(int32(p.src), p.dst[0])
		b := appendJSONHead(sc.body[:0], h.name, seq, op)
		b = appendJSONKeyInt(b, "src", p.src)
		b = appendJSONKeyInt(b, "dst", int64(p.dst[0]))
		b = appendJSONKeyInt(b, "lo", int64(lo))
		b = appendJSONKeyInt(b, "hi", int64(hi))
		sc.body = append(b, '}')
		return sc.body, seq, nil

	case "centrality":
		kind := p.kind
		if kind == "" {
			kind = "degree"
		}
		k := p.k
		if k < 0 {
			k = 10
		}
		if k > maxListIDs {
			return nil, 0, badRequest("centrality: k > %d", maxListIDs)
		}
		val, seq, err := s.pinArtifact(h, "centrality/"+kind, nil)
		if err != nil {
			return nil, seq, err
		}
		scores := val.([]float64)
		top := centrality.TopKVertices(scores, int(k))
		b := appendJSONHead(sc.body[:0], h.name, seq, op)
		b = append(b, `,"kind":"`...)
		b = append(b, kind...)
		b = append(b, '"')
		b = appendJSONKeyInt(b, "k", int64(len(top)))
		b = appendJSONKeyIntList(b, "top", top)
		b = append(b, `,"score":[`...)
		for i, v := range top {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, scores[v])
		}
		b = append(b, ']', '}')
		sc.body = b
		return sc.body, seq, nil

	case "community":
		algo := p.algo
		if algo == "" {
			algo = "louvain"
		}
		val, seq, err := s.pinArtifact(h, "community/"+algo, func(g *graph.Graph) error {
			if g.Directed() {
				return badRequest("community: modularity clustering needs an undirected graph")
			}
			return nil
		})
		if err != nil {
			return nil, seq, err
		}
		cl := val.(community.Clustering)
		b := appendJSONHead(sc.body[:0], h.name, seq, op)
		b = appendJSONKeyInt(b, "count", int64(cl.Count))
		b = appendJSONKeyFloat(b, "q", cl.Q)
		if len(p.vs) > 0 {
			assign, err := gatherInt32(cl.Assign, p.vs, sc)
			if err != nil {
				return nil, seq, err
			}
			b = appendJSONKeyIntList(b, "v", p.vs)
			b = appendJSONKeyIntList(b, "assign", assign)
		}
		sc.body = append(b, '}')
		return sc.body, seq, nil

	case "components":
		val, seq, err := s.pinArtifact(h, "components", nil)
		if err != nil {
			return nil, seq, err
		}
		lab := val.(components.Labeling)
		b := appendJSONHead(sc.body[:0], h.name, seq, op)
		b = appendJSONKeyInt(b, "count", int64(lab.Count))
		if len(p.vs) > 0 {
			comp, err := gatherInt32(lab.Comp, p.vs, sc)
			if err != nil {
				return nil, seq, err
			}
			b = appendJSONKeyIntList(b, "v", p.vs)
			b = appendJSONKeyIntList(b, "comp", comp)
		}
		sc.body = append(b, '}')
		return sc.body, seq, nil

	case "subgraph":
		if len(p.vs) == 0 {
			return nil, 0, badRequest("subgraph: v parameter required")
		}
		if !s.lim.tryAcquire() {
			return nil, 0, errBusy
		}
		defer s.lim.release()
		g, seq, release, err := h.pin()
		if err != nil {
			return nil, 0, err
		}
		defer release()
		for _, v := range p.vs {
			if int(v) >= g.NumVertices() {
				return nil, seq, errBadVertex
			}
		}
		sub, _, err := graph.InducedSubgraph(g, p.vs)
		if err != nil {
			return nil, seq, badRequest("subgraph: %v", err)
		}
		n, m := sub.NumVertices(), sub.NumEdges()
		density := 0.0
		if n > 1 {
			pairs := float64(n) * float64(n-1)
			if !sub.Directed() {
				pairs /= 2
			}
			density = float64(m) / pairs
		}
		b := appendJSONHead(sc.body[:0], h.name, seq, op)
		b = appendJSONKeyInt(b, "n", int64(n))
		b = appendJSONKeyInt(b, "m", int64(m))
		b = appendJSONKeyFloat(b, "density", density)
		b = appendJSONKeyFloat(b, "clustering", metrics.GlobalClustering(sub, s.workers()))
		sc.body = append(b, '}')
		return sc.body, seq, nil
	}
	return nil, 0, errUnknownOp
}

// gatherInt32 indexes vals at each requested vertex, reusing scratch
// id capacity for the gathered run.
func gatherInt32(vals []int32, vs []int32, sc *scratch) ([]int32, error) {
	lo := len(sc.ids)
	for _, v := range vs {
		if int(v) >= len(vals) {
			return nil, errBadVertex
		}
		sc.ids = append(sc.ids, vals[v])
	}
	return sc.ids[lo:], nil
}

// HTTP handlers.

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, status := s.Answer(r.Context(), r.PathValue("name"), r.PathValue("op"), r.URL.RawQuery)
	writeBody(w, status, body)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(r.PathValue("name"))
	if h == nil {
		writeBody(w, http.StatusNotFound, []byte(`{"error":"unknown graph"}`))
		return
	}
	g, seq, release, err := h.pin()
	if err != nil {
		writeBody(w, statusFor(err), errJSON(err))
		return
	}
	defer release()
	b := appendJSONHead(nil, h.name, seq, "info")
	b = appendJSONKeyInt(b, "n", int64(g.NumVertices()))
	b = appendJSONKeyInt(b, "m", int64(g.NumEdges()))
	b = appendJSONKeyBool(b, "directed", g.Directed())
	b = appendJSONKeyBool(b, "weighted", g.Weighted())
	b = appendJSONKeyBool(b, "stream", h.stream != nil)
	if h.stream != nil {
		b = appendJSONKeyInt(b, "pending", int64(h.stream.Pending()))
	}
	writeBody(w, http.StatusOK, append(b, '}'))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.handles))
	for name := range s.handles {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	b, _ := json.Marshal(map[string]any{"graphs": names})
	writeBody(w, http.StatusOK, b)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, s.statsJSON())
}

// Stats snapshots the server's performance counters.
type Stats struct {
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheEntries int    `json:"cache_entries"`
	CacheBytes   int64  `json:"cache_bytes"`
	Batches      uint64 `json:"batches"`
	BatchedReqs  uint64 `json:"batched_requests"`
	DedupSaved   uint64 `json:"dedup_saved"`
	Rejected     uint64 `json:"rejected"`
	Graphs       int    `json:"graphs"`
	// ArtifactBuilds counts per-epoch artifact builds that ran;
	// ArtifactWarmBuilds those that started from the previous epoch's
	// result (epoch-chained PageRank on stream handles).
	ArtifactBuilds     uint64 `json:"artifact_builds"`
	ArtifactWarmBuilds uint64 `json:"artifact_warm_builds"`
}

// Snapshot returns the current counters (also served at /stats).
func (s *Server) Snapshot() Stats {
	hits, misses, entries, bytes := s.cache.stats()
	s.mu.RLock()
	n := len(s.handles)
	s.mu.RUnlock()
	return Stats{
		CacheHits:    hits,
		CacheMisses:  misses,
		CacheEntries: entries,
		CacheBytes:   bytes,
		Batches:      s.batches.Load(),
		BatchedReqs:  s.batchedReqs.Load(),
		DedupSaved:   s.dedupSaved.Load(),
		Rejected:     s.lim.rejected.Load(),
		Graphs:       n,

		ArtifactBuilds:     s.artifactBuilds.Load(),
		ArtifactWarmBuilds: s.artifactWarmBuilds.Load(),
	}
}

func (s *Server) statsJSON() []byte {
	b, _ := json.Marshal(s.Snapshot())
	return b
}

// Mutation endpoints, stream handles only.

type edgeBatch struct {
	// Add holds [u, v] or [u, v, w] triples; Del holds [u, v] pairs.
	Add [][]float64 `json:"add"`
	Del [][]float64 `json:"del"`
}

// maxEdgeBody bounds a POST /edges body; a larger one is answered 413.
const maxEdgeBody = 64 << 20

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(r.PathValue("name"))
	if h == nil {
		writeBody(w, http.StatusNotFound, []byte(`{"error":"unknown graph"}`))
		return
	}
	if h.stream == nil {
		writeBody(w, http.StatusMethodNotAllowed, []byte(`{"error":"static graph is immutable"}`))
		return
	}
	var batch edgeBatch
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEdgeBody)).Decode(&batch); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeBody(w, code, errJSON(err))
		return
	}
	del, err := edgeRows(batch.Del, true)
	if err != nil {
		writeBody(w, http.StatusBadRequest, errJSON(err))
		return
	}
	add, err := edgeRows(batch.Add, false)
	if err != nil {
		writeBody(w, http.StatusBadRequest, errJSON(err))
		return
	}
	for _, e := range del {
		if err := h.stream.Delete(e.U, e.V); err != nil {
			writeBody(w, http.StatusBadRequest, errJSON(err))
			return
		}
	}
	if err := h.stream.AddEdges(add); err != nil {
		writeBody(w, http.StatusBadRequest, errJSON(err))
		return
	}
	b, _ := json.Marshal(map[string]int{"pending": h.stream.Pending()})
	writeBody(w, http.StatusOK, b)
}

// edgeRows converts the JSON rows of one batch into edges before any
// is staged. An endpoint must be an integer in int32 range and a weight
// finite and non-negative (delta-stepping's precondition); the stream
// itself checks the vertex range.
func edgeRows(rows [][]float64, del bool) ([]graph.Edge, error) {
	edges := make([]graph.Edge, 0, len(rows))
	for _, row := range rows {
		if len(row) < 2 || (del && len(row) != 2) || len(row) > 3 {
			return nil, badRequest("edge row wants [u,v] or [u,v,w], got %v", row)
		}
		for _, x := range row[:2] {
			if x != math.Trunc(x) || x < math.MinInt32 || x > math.MaxInt32 {
				return nil, badRequest("edge endpoint %v is not an int32 vertex id", x)
			}
		}
		e := graph.Edge{U: int32(row[0]), V: int32(row[1]), W: 1}
		if len(row) == 3 {
			e.W = row[2]
			if math.IsNaN(e.W) || math.IsInf(e.W, 0) || e.W < 0 {
				return nil, badRequest("edge weight %v is not finite and non-negative", e.W)
			}
		}
		edges = append(edges, e)
	}
	return edges, nil
}

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(r.PathValue("name"))
	if h == nil {
		writeBody(w, http.StatusNotFound, []byte(`{"error":"unknown graph"}`))
		return
	}
	if h.stream == nil {
		writeBody(w, http.StatusMethodNotAllowed, []byte(`{"error":"static graph is immutable"}`))
		return
	}
	stats, err := h.stream.Commit()
	if err != nil {
		writeBody(w, http.StatusInternalServerError, errJSON(err))
		return
	}
	b, _ := json.Marshal(struct {
		Seq      uint64 `json:"seq"`
		Added    int    `json:"added"`
		Updated  int    `json:"updated"`
		Deleted  int    `json:"deleted"`
		Vertices int    `json:"vertices"`
		Edges    int    `json:"edges"`
	}{stats.Seq, stats.Added, stats.Updated, stats.Deleted, stats.Vertices, stats.Edges})
	writeBody(w, http.StatusOK, b)
}
