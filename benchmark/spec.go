package main

import (
	"math"
	"math/rand"

	"snap"
	"snap/internal/generate"
)

// metricSpec names one reported metric. Bound is the share of the
// parent's value by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m metricSpec) higherBetter() bool { return m.Better == "higher" }

// endToEnd lists what a user of the system sees, measured with tracing
// off on every workload. BENCHMARK.json repeats this table; the smoke
// test keeps the two in step.
var endToEnd = []metricSpec{
	{"round_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// userLevel is how many leading entries of perLayer are the user's own
// view; every run measures those, the traced run alone the rest.
const userLevel = 8

// perLayer lists the metrics of the traced run. A layer a workload
// never calls reports 0 there: it did no work.
var perLayer = []metricSpec{
	// The user's view below round_s: stage times of the analysis
	// session, throughput and write-path latencies of the server.
	{Name: "load_s", Unit: "s", Better: "lower"},
	{Name: "traverse_s", Unit: "s", Better: "lower"},
	{Name: "rank_s", Unit: "s", Better: "lower"},
	{Name: "cluster_s", Unit: "s", Better: "lower"},
	{Name: "qps", Unit: "1/s", Better: "higher"},
	{Name: "commit_ms", Unit: "ms", Better: "lower"},
	{Name: "refresh_ms", Unit: "ms", Better: "lower"},
	{Name: "alloc_kb_op", Unit: "kB", Better: "lower"},

	{Name: "graph.read_text_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.merge_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "container.write_ms", Unit: "ms", Better: "lower"},
	{Name: "container.map_us", Unit: "us", Better: "lower"},
	{Name: "container.alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "bfs.run_ms", Unit: "ms", Better: "lower"},
	{Name: "bfs.mteps", Unit: "Mteps", Better: "higher"},
	{Name: "bfs.levels", Unit: "count", Better: "lower"},
	{Name: "bfs.alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "sssp.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sssp.mteps", Unit: "Mteps", Better: "higher"},
	{Name: "sssp.alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "components.run_ms", Unit: "ms", Better: "lower"},
	{Name: "components.alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "centrality.pagerank_ms", Unit: "ms", Better: "lower"},
	{Name: "centrality.alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "sketch.anf_ms", Unit: "ms", Better: "lower"},
	{Name: "sketch.closeness_ms", Unit: "ms", Better: "lower"},
	{Name: "sketch.alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "community.louvain_ms", Unit: "ms", Better: "lower"},
	{Name: "community.modularity", Unit: "ratio", Better: "higher"},
	{Name: "community.count", Unit: "count", Better: "lower"},
	{Name: "community.alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "partition.kway_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.edgecut", Unit: "count", Better: "lower"},
	{Name: "partition.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "partition.alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "ingest.add_us_edge", Unit: "us", Better: "lower"},
	{Name: "ingest.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.alloc_kb", Unit: "kB", Better: "lower"},
	{Name: "serve.http_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.answer_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.answer_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.kernel_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_size", Unit: "count", Better: "higher"},
	{Name: "serve.dedup_saved", Unit: "count", Better: "higher"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.edges_post_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.commit_post_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.artifact_pagerank_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.artifact_components_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// spanMetrics maps a span name to the per-layer metric that reports
// the median duration of those spans in a round, and the factor from
// nanoseconds to the metric's unit.
var spanMetrics = map[string]struct {
	metric string
	perNS  float64
}{
	"graph.read_text":           {"graph.read_text_ms", 1e-6},
	"graph.build":               {"graph.build_ms", 1e-6},
	"graph.merge_delta":         {"graph.merge_delta_ms", 1e-6},
	"container.write":           {"container.write_ms", 1e-6},
	"container.map":             {"container.map_us", 1e-3},
	"bfs.run":                   {"bfs.run_ms", 1e-6},
	"sssp.run":                  {"sssp.run_ms", 1e-6},
	"components.run":            {"components.run_ms", 1e-6},
	"centrality.pagerank":       {"centrality.pagerank_ms", 1e-6},
	"sketch.anf":                {"sketch.anf_ms", 1e-6},
	"sketch.closeness":          {"sketch.closeness_ms", 1e-6},
	"community.louvain":         {"community.louvain_ms", 1e-6},
	"partition.kway":            {"partition.kway_ms", 1e-6},
	"ingest.commit":             {"ingest.commit_ms", 1e-6},
	"serve.http_hit":            {"serve.http_hit_us", 1e-3},
	"serve.answer_hit":          {"serve.answer_hit_us", 1e-3},
	"serve.answer_miss":         {"serve.answer_miss_ms", 1e-6},
	"serve.kernel_miss":         {"serve.kernel_miss_ms", 1e-6},
	"serve.edges_post":          {"serve.edges_post_ms", 1e-6},
	"serve.commit_post":         {"serve.commit_post_ms", 1e-6},
	"serve.artifact_pagerank":   {"serve.artifact_pagerank_ms", 1e-6},
	"serve.artifact_components": {"serve.artifact_components_ms", 1e-6},
}

// config is one run's parameters. The zero-valued knobs are the
// benchmark; any other value is stamped into the result header.
type config struct {
	seed    int64
	seconds float64 // budget of the timed rounds
	rounds  int     // > 0 fixes the number of timed rounds instead
	scale   int     // divides graph sizes and repetition counts (smoke tests)
	trace   bool
	outDir  string

	corrupt bool // tests only: damage one answer per round before checking
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

// clients is the closed-loop client count of every serve workload.
const clients = 2

// counts are the per-stage repetition counts of the scripts at a
// given scale; scale 1 is the benchmark.
type counts struct {
	BFS, SSSP, Components  int // analyze traverse stage
	HotQueries, HotReplays int // serve-hot: distinct warmed queries, requests per client per round
	ColdQueries            int // serve-cold: never-repeated queries per client per round
	Cycles, CycleBFS       int // serve-ingest: write/read cycles per round, first-touch bfs per client per cycle
	Adds, Deletes          int // serve-ingest: edge operations per cycle
}

func countsAt(scale int) counts {
	d := func(x int) int { return max(1, x/scale) }
	return counts{
		BFS: d(24), SSSP: d(6), Components: d(4),
		HotQueries: d(64), HotReplays: d(500000),
		ColdQueries: 5 * d(25),
		Cycles:      d(6), CycleBFS: d(17),
		Adds: d(900), Deletes: d(100),
	}
}

// procs is GOMAXPROCS of every workload, and with it the default worker
// count of every kernel. The reference box has two vCPUs of a shared
// host. With both in use, whatever a neighbour takes from either one
// stalls the kernels' barriers and the clients' lock hand-offs on the
// other: bursts that held one vCPU half of the time moved serve-ingest
// p90_ms by 47% and round_s by 21% at 2, and by less than 3% at 1, where
// the kernel moves the one running thread to whichever vCPU is free.
// The two clients of a serve workload are still two goroutines whose
// misses meet in one coalescing window; what 1 gives up is the parallel
// speed-up of the kernels, which this box cannot measure repeatably.
const procs = 1

// workloadSpec is one named workload: why it exists and how to set it
// up from a seed.
type workloadSpec struct {
	Name  string
	Why   string
	setup func(cfg config) fixture
}

var workloads = []workloadSpec{
	{"analyze-rmat", "analysis session on a small-world R-MAT graph: low diameter and hub-heavy coarsening, kernels do all the work", setupAnalyze("rmat")},
	{"analyze-road", "the same session on a road mesh: hundreds of BFS levels and many SSSP buckets, so per-level cost shows and power-law tuning must not", setupAnalyze("road")},
	{"serve-hot", "Zipf replay of warmed distance queries: every request is a result-cache hit, so parser, mux and cache show and kernels must not", setupHot},
	{"serve-cold", "never-repeated bfs/sssp queries on a fresh server: every request misses, so the coalescer and kernels show and the cache is bypassed", setupCold},
	{"serve-ingest", "edge posts and commits beside first-touch reads on a stream: commit cost against what each new epoch costs its readers", setupIngest},
}

// makeGraph generates the named graph family from the seed. The
// weighted twin carries integer weights in [1,100].
func makeGraph(kind string, cfg config, weighted bool) (g, gw *snap.Graph) {
	switch kind {
	case "rmat":
		n := 1 << 17
		for n > (1<<17)/cfg.scale {
			n >>= 1
		}
		g = generate.RMAT(n, 8*n, generate.DefaultRMAT(), cfg.seed)
	case "road":
		side := int(362 / math.Sqrt(float64(cfg.scale)))
		g = generate.RoadMesh(side, side, 0.05, cfg.seed)
	}
	if weighted {
		gw = generate.RandomWeights(g, 100, cfg.seed+1)
	}
	return g, gw
}

// drawFrom samples k members of pool with replacement. Traversal
// sources come from the largest component only: R-MAT leaves many
// isolated vertices, and sampling them makes BFS latency bimodal.
func drawFrom(rng *rand.Rand, pool []int32, k int) []int32 {
	out := make([]int32, k)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// drawDistinct samples k distinct members of pool.
func drawDistinct(rng *rand.Rand, pool []int32, k int) []int32 {
	out := make([]int32, 0, k)
	for _, i := range rng.Perm(len(pool))[:k] {
		out = append(out, pool[i])
	}
	return out
}
