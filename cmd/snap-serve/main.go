// Command snap-serve is the long-lived graph-analytics server: it
// loads graphs — zero-copy mmap'd SNP2 containers or text edge lists —
// and answers analytics queries over HTTP/JSON under concurrent load,
// with request coalescing, an epoch-keyed result cache, admission
// control, and per-query deadlines (internal/serve).
//
// Usage:
//
//	snap-serve -graph web=web.snp2 -graph road=road.txt
//	snap-serve -stream live=base.snp2 -addr :9090 -timeout 2s
//	snap-serve -rmat 18   # synthetic demo graph named "rmat"
//
// Endpoints (GET unless noted):
//
//	/healthz, /stats, /graphs, /graphs/{name}
//	/graphs/{name}/bfs?src=S&dst=A,B[&maxdepth=K]   hop distances
//	/graphs/{name}/sssp?src=S&dst=A,B               weighted distances
//	/graphs/{name}/estimate?src=S&dst=T             oracle distance bracket
//	/graphs/{name}/centrality?kind=pagerank&k=10    top-k centrality
//	/graphs/{name}/community?v=A,B                  community assignment
//	/graphs/{name}/components?v=A,B                 component labels
//	/graphs/{name}/subgraph?v=A,B,C                 induced-subgraph metrics
//	POST /graphs/{name}/edges {"add":[[u,v],...]}   stage stream edges
//	POST /graphs/{name}/commit                      publish a new epoch
//
// A -graph handle is immutable (mutations answer 405); a -stream
// handle accepts staged edges and commits, and queries always pin the
// newest committed epoch.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"snap"
	"snap/internal/graph"
	"snap/internal/graph/container"
	"snap/internal/ingest"
	"snap/internal/serve"
)

// namePathList collects repeatable name=path flags.
type namePathList []string

func (l *namePathList) String() string     { return strings.Join(*l, ",") }
func (l *namePathList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var graphs, streams namePathList
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		rmat     = flag.Int("rmat", 0, "also serve a synthetic RMAT graph named \"rmat\" at this scale (n = 2^scale, m = 8n)")
		directed = flag.Bool("directed", false, "treat text edge-list inputs as directed")
		window   = flag.Duration("window", 0, "coalescing window (0 = default 500µs)")
		cacheMB  = flag.Int64("cache-mb", 0, "result cache budget in MiB (0 = default 64)")
		inflight = flag.Int("inflight", 0, "max in-flight heavy queries (0 = default 2×GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "per-query deadline (0 = none)")
		workers  = flag.Int("workers", 0, "worker cap per kernel invocation (0 = all cores)")
	)
	flag.Var(&graphs, "graph", "serve an immutable graph, name=path (repeatable; .snp2 maps zero-copy)")
	flag.Var(&streams, "stream", "serve a mutable ingest stream seeded from path, name=path (repeatable)")
	flag.Parse()

	s := serve.New(serve.Config{
		CoalesceWindow: *window,
		CacheBytes:     *cacheMB << 20,
		MaxInFlight:    *inflight,
		QueryTimeout:   *timeout,
		Workers:        *workers,
	})

	registered := 0
	for _, spec := range graphs {
		name, g := loadSpec(spec, *directed)
		if err := s.RegisterStatic(name, g); err != nil {
			fatal(err)
		}
		logGraph(name, g, "static")
		registered++
	}
	for _, spec := range streams {
		name, g := loadSpec(spec, *directed)
		if err := s.RegisterStream(name, ingest.New(g, ingest.Options{})); err != nil {
			fatal(err)
		}
		logGraph(name, g, "stream")
		registered++
	}
	if *rmat > 0 {
		n := 1 << *rmat
		g := snap.RMAT(n, 8*n, snap.DefaultRMAT(), 1)
		if err := s.RegisterStatic("rmat", g); err != nil {
			fatal(err)
		}
		logGraph("rmat", g, "static")
		registered++
	}
	if registered == 0 {
		fmt.Fprintln(os.Stderr, "snap-serve: nothing to serve; pass -graph, -stream, or -rmat")
		flag.Usage()
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "snap-serve: listening on %s\n", *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       idleTimeout,
	}
	fatal(srv.ListenAndServe())
}

// idleTimeout closes a keep-alive connection that has waited this long
// for its next request, releasing its goroutine and buffers. There is
// no WriteTimeout: a cold kernel can legitimately run for seconds, and
// the per-query -timeout bounds it instead.
const idleTimeout = 2 * time.Minute

// loadSpec parses "name=path" and loads the graph by extension: .snp2
// maps zero-copy, anything else parses as a text edge list.
func loadSpec(spec string, directed bool) (string, *graph.Graph) {
	name, path, ok := strings.Cut(spec, "=")
	if !ok || name == "" || path == "" {
		fatal(fmt.Errorf("want name=path, got %q", spec))
	}
	var g *graph.Graph
	var err error
	if strings.HasSuffix(path, ".snp2") {
		g, err = container.Load(path, container.LoadOptions{})
	} else {
		var f *os.File
		if f, err = os.Open(path); err == nil {
			g, err = graph.ReadEdgeList(f, directed)
			f.Close()
		}
	}
	if err != nil {
		fatal(fmt.Errorf("load %s: %w", path, err))
	}
	return name, g
}

func logGraph(name string, g *graph.Graph, kind string) {
	fmt.Fprintf(os.Stderr, "snap-serve: %s %q: %v\n", kind, name, g)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snap-serve:", err)
	os.Exit(1)
}
